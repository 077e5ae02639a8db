//! The coupled immersion-cooling model — the SKAT system end to end.

use rcs_cooling::ImmersionBath;
use rcs_devices::{OperatingPoint, PowerModel};
use rcs_fluids::FluidState;
use rcs_hydraulics::{
    BranchId, Element, HydraulicNetwork, Pipe, PumpCurve, SolveOptions, SolverContext, Valve,
};
use rcs_platform::{presets, ComputeModule};
use rcs_thermal::{
    ChipStack, HeatSink, NodeId, ThermalInterface, ThermalNetwork, TimAging, TimMaterial,
    TransientTrace,
};
use rcs_units::{
    Celsius, Length, Power, Seconds, TempDelta, ThermalCapacityRate, ThermalResistance, Velocity,
    VolumeFlow,
};

use rcs_obs::span::SpanSink;
use rcs_obs::trace::TraceRecorder;
use rcs_obs::{Registry, Sinks};

use crate::error::CoreError;
use crate::report::SteadyReport;

/// Electrical efficiency of the circulation pump drive (hydraulic power
/// delivered per electrical watt).
pub(crate) const PUMP_DRIVE_EFFICIENCY: f64 = 0.45;

/// Heat the circulation pumps put into the bath: all of their
/// electrical power when the drives are immersed, only the hydraulic
/// share otherwise.
pub(crate) fn pump_heat(bath: &ImmersionBath, electrical: Power) -> Power {
    if bath.immersed_pumps {
        electrical
    } else {
        Power::from_watts(electrical.watts() * PUMP_DRIVE_EFFICIENCY)
    }
}

/// Outer fixed-point iteration histogram bounds (inclusive upper
/// bounds, overflow bucket past the heaviest ladder budget).
const ITER_BOUNDS: [u64; 7] = [5, 10, 20, 50, 120, 400, 1200];
/// Coupled-ladder rung histogram bounds: rungs 0, 1, 2 of the standard
/// ladder (rung 0 is the default damping); later rungs overflow.
const RUNG_BOUNDS: [u64; 3] = [0, 1, 2];

/// The coupled model of one immersion-cooled computational module:
/// hydraulic operating point → sink convection → ε-NTU heat exchange →
/// chiller supply → temperature-dependent FPGA power, iterated to a fixed
/// point.
///
/// # Examples
///
/// ```
/// use rcs_core::ImmersionModel;
///
/// let report = ImmersionModel::skat().solve()?;
/// assert!((report.chip_power.watts() - 91.0).abs() < 4.0);
/// assert!(report.coolant_hot.degrees() <= 30.0);
/// assert!(report.junction.degrees() <= 55.0);
/// # Ok::<(), rcs_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ImmersionModel {
    module: ComputeModule,
    bath: ImmersionBath,
    op: OperatingPoint,
    tim_material: TimMaterial,
    aging: TimAging,
    /// Explicit per-pump curves replacing the bath's identical pumps
    /// (fault injection: wear, seizure). `None` = the healthy default.
    pump_overrides: Option<Vec<PumpCurve>>,
    /// Circulation-path valve opening in `(0, 1]`; `1.0` (the default)
    /// adds no valve element at all, keeping healthy solves identical.
    circulation_valve_opening: f64,
}

impl ImmersionModel {
    /// The SKAT system: the `presets::skat()` module in its default bath.
    #[must_use]
    pub fn skat() -> Self {
        Self::new(presets::skat(), ImmersionBath::skat_default())
    }

    /// The SKAT+ design: UltraScale+ module, immersed pumps, larger
    /// exchanger.
    #[must_use]
    pub fn skat_plus() -> Self {
        Self::new(presets::skat_plus(), ImmersionBath::skat_plus_default())
    }

    /// Builds a model from any module and bath.
    #[must_use]
    pub fn new(module: ComputeModule, bath: ImmersionBath) -> Self {
        Self {
            module,
            bath,
            op: OperatingPoint::operating_mode(),
            tim_material: TimMaterial::SrcDesigned,
            aging: TimAging::fresh(),
            pump_overrides: None,
            circulation_valve_opening: 1.0,
        }
    }

    /// Overrides the operating point.
    #[must_use]
    pub fn with_operating_point(mut self, op: OperatingPoint) -> Self {
        self.op = op;
        self
    }

    /// Overrides the thermal interface material (washout experiments).
    #[must_use]
    pub fn with_tim(mut self, material: TimMaterial) -> Self {
        self.tim_material = material;
        self
    }

    /// Applies interface aging (service-time experiments).
    #[must_use]
    pub fn with_aging(mut self, aging: TimAging) -> Self {
        self.aging = aging;
        self
    }

    /// Replaces the bath's identical pumps with explicit per-pump
    /// curves — the fault-injection hook for impeller wear (derated
    /// curves) and pump seizure (a seized pump is simply omitted from
    /// the list). An empty list means no circulation at all.
    #[must_use]
    pub fn with_pump_curves(mut self, curves: Vec<PumpCurve>) -> Self {
        self.pump_overrides = Some(curves);
        self
    }

    /// Sets a partially stuck valve in the circulation path (fault
    /// injection). At the default `1.0` no valve element is inserted,
    /// so healthy solves are bit-identical to the unfaulted model.
    ///
    /// # Panics
    ///
    /// Panics if `opening` is outside `(0, 1]`.
    #[must_use]
    pub fn with_circulation_valve(mut self, opening: f64) -> Self {
        assert!(
            opening > 0.0 && opening <= 1.0,
            "valve opening outside (0, 1]"
        );
        self.circulation_valve_opening = opening;
        self
    }

    /// The module being cooled.
    #[must_use]
    pub fn module(&self) -> &ComputeModule {
        &self.module
    }

    /// The bath configuration.
    #[must_use]
    pub fn bath(&self) -> &ImmersionBath {
        &self.bath
    }

    /// The per-chip thermal stack at the current TIM configuration.
    #[must_use]
    pub fn chip_stack(&self) -> ChipStack {
        let part = self.module.ccb().part();
        ChipStack::new(
            part.r_junction_case(),
            ThermalInterface::new(
                self.tim_material,
                Length::millimeters(0.05),
                part.package_side() * part.package_side(),
            ),
            HeatSink::PinFin(self.bath.sink),
        )
        .with_aging(self.aging)
    }

    /// Builds the bath circulation network — the bath + exchanger loss
    /// path against the surviving pump curves — or `None` when every
    /// pump has seized (stagnant bath). The topology depends only on
    /// the model configuration, never on the oil temperature, so one
    /// build (and one [`SolverContext`]) serves a whole fixed-point
    /// iteration or transient.
    fn circulation_network(&self) -> Result<Option<(HydraulicNetwork, BranchId)>, CoreError> {
        let pump_curves: Vec<PumpCurve> = match &self.pump_overrides {
            Some(curves) => curves.clone(),
            None => vec![self.bath.pump; self.bath.pump_count],
        };
        if pump_curves.is_empty() {
            return Ok(None);
        }

        let mut net = HydraulicNetwork::new();
        let a = net.add_junction("bath inlet");
        let b = net.add_junction("bath outlet");
        let d50 = Length::millimeters(50.0);
        let mut path = vec![
            Element::MinorLoss {
                k: 2.0,
                diameter: d50,
            }, // bath entry diffuser
            Element::MinorLoss {
                k: 4.0,
                diameter: d50,
            }, // board stack
            Element::MinorLoss {
                k: 2.0,
                diameter: d50,
            }, // bath exit collector
            Element::MinorLoss {
                k: 6.0,
                diameter: d50,
            }, // plate exchanger passages
            Element::Pipe(Pipe::smooth(Length::from_meters(1.5), d50)),
        ];
        if self.circulation_valve_opening < 1.0 {
            let mut valve = Valve::balancing(d50);
            valve.opening = self.circulation_valve_opening;
            path.push(Element::Valve(valve));
        }
        let bath_branch = net
            .add_branch("bath + exchanger path", a, b, path)
            .map_err(CoreError::from)?;
        for (i, curve) in pump_curves.iter().enumerate() {
            net.add_branch(format!("pump {i}"), b, a, vec![Element::Pump(*curve)])
                .map_err(CoreError::from)?;
        }
        Ok(Some((net, bath_branch)))
    }

    /// One circulation operating-point solve of oil in state `oil`
    /// through a caller-held [`SolverContext`], so consecutive solves of
    /// the same bath reuse the sparse schedule and warm-start from the
    /// previous flows.
    fn circulation_solve(
        &self,
        net: &HydraulicNetwork,
        bath_branch: BranchId,
        oil: &FluidState,
        ctx: &mut SolverContext,
        obs: &Registry,
    ) -> Result<(VolumeFlow, Power), CoreError> {
        obs.inc("immersion.circulation.calls");
        // retry ladder: bit-identical to a plain solve for healthy
        // networks, but deeply derated pump curves get the damped rungs
        // and, failing those, diagnostics naming the offending branch
        let solution = net
            .solve_with_ladder(oil, &SolveOptions::ladder(), ctx, Sinks::counters(obs))
            .map_err(CoreError::from)?;
        let flow = solution.flow(bath_branch);
        let electrical =
            Power::from_watts(solution.total_pump_power().watts() / PUMP_DRIVE_EFFICIENCY);
        Ok((flow, electrical))
    }

    /// The standard coupled retry ladder as `(damping, max_iter)` rungs:
    /// the default mixing first, then two heavier-damped re-solves with
    /// larger budgets for stiff faulted configurations.
    pub const LADDER: [(f64, usize); 3] = [(0.5, 120), (0.25, 400), (0.1, 1200)];

    /// Solves the full coupled steady state through the standard
    /// [`ImmersionModel::LADDER`] with telemetry off.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoConvergence`] if every rung of the ladder
    /// fails (the default rung converges for every physical
    /// configuration, typically in about ten iterations) and propagates
    /// substrate failures.
    pub fn solve(&self) -> Result<SteadyReport, CoreError> {
        self.solve_with_ladder(&Self::LADDER, Sinks::disabled())
    }

    /// [`ImmersionModel::solve`] with telemetry on separate sinks. Kept
    /// for `perfbench/src/sinks.rs`, its only caller.
    ///
    /// # Errors
    ///
    /// Same contract as [`ImmersionModel::solve_with_ladder`].
    pub fn solve_robust_spanned(
        &self,
        obs: &Registry,
        trace: &TraceRecorder,
        spans: &SpanSink,
    ) -> Result<SteadyReport, CoreError> {
        self.solve_with_ladder(&Self::LADDER, Sinks { obs, trace, spans })
    }

    /// Solves through a retry ladder of `(damping, max_iter)` rungs, in
    /// order, and returns the first rung's report that converges; the
    /// last rung's [`CoreError::NoConvergence`] (with its recorded
    /// residual) is returned if all fail. This is the one attempt
    /// driver of the coupled fixed point: [`ImmersionModel::LADDER`] is
    /// the standard ladder, and a one-off attempt is a one-rung slice.
    ///
    /// Every rung runs the same Anderson-accelerated fixed point (depth
    /// 2 on junction, hot-oil and cold-oil temperature) with the rung's
    /// damping as its mixing factor, from the same cold start. A
    /// least-squares step that is ill-conditioned or not finite clears
    /// the history and falls back to the plain damped blend toward the
    /// update, so a heavier rung still moves more cautiously. A rung
    /// converges once the update moves junction plus hot oil by less
    /// than 1e-7 K.
    ///
    /// Telemetry, all golden:
    ///
    /// - counters on `sinks.obs`: `immersion.ladder.calls` /
    ///   `.converged` / `.no_convergence` / `.error`,
    ///   `immersion.ladder.escalations` (rungs abandoned before
    ///   convergence — the fallback count), the `immersion.ladder.rung`
    ///   histogram of the converged rung and `immersion.ladder.iterations`
    ///   of its outer fixed point, the `profile.immersion.fixed_point_iterations`
    ///   work of every rung attempted, plus the `immersion.circulation.*`
    ///   and `hydraulics.ladder.*` counters of every inner circulation
    ///   solve (abandoned rungs included);
    /// - trace on `sinks.trace`: every rung attempted pushes one sample
    ///   into `immersion.ladder.iterations` and, where a residual exists,
    ///   into `immersion.ladder.residual` (rung index as the time axis);
    /// - spans on `sinks.spans`: one `immersion.ladder` span with one
    ///   `rung` child per rung attempted.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfiguration`], before any work or
    /// telemetry, for an empty ladder, a damping outside `(0, 1]` or a
    /// `max_iter` of 0; [`CoreError::NoConvergence`] when every rung
    /// fails; substrate failures propagate immediately without retries.
    #[allow(clippy::cast_precision_loss)]
    pub fn solve_with_ladder(
        &self,
        rungs: &[(f64, usize)],
        sinks: Sinks<'_>,
    ) -> Result<SteadyReport, CoreError> {
        use rcs_obs::trace::ChannelKind::{Residual, Scalar};
        check_ladder(rungs)?;
        let Sinks { obs, trace, spans } = sinks;
        obs.inc("immersion.ladder.calls");
        spans.enter("immersion.ladder", obs);
        let mut last = None;
        for (rung, &(damping, max_iter)) in rungs.iter().enumerate() {
            spans.enter("rung", obs);
            let attempt = self.solve_damped(damping, max_iter, obs);
            let (iterations, residual) = match &attempt {
                Ok(report) => (report.iterations, None),
                Err(CoreError::NoConvergence {
                    iterations,
                    residual_k,
                }) => (*iterations, *residual_k),
                Err(_) => {
                    obs.inc("immersion.ladder.error");
                    spans.exit(obs);
                    spans.exit(obs);
                    return attempt;
                }
            };
            obs.work("immersion.fixed_point_iterations", iterations as u64);
            spans.exit(obs);
            let t = rung as f64;
            trace.record_named("immersion.ladder.iterations", Scalar, t, iterations as f64);
            if let Some(residual) = residual {
                trace.record_named("immersion.ladder.residual", Residual, t, residual);
            }
            match attempt {
                Ok(report) => {
                    obs.inc("immersion.ladder.converged");
                    obs.add("immersion.ladder.escalations", rung as u64);
                    obs.record_histogram("immersion.ladder.rung", &RUNG_BOUNDS, rung as u64);
                    obs.record_histogram(
                        "immersion.ladder.iterations",
                        &ITER_BOUNDS,
                        iterations as u64,
                    );
                    spans.exit(obs);
                    return Ok(report);
                }
                Err(e) => last = Some(e),
            }
        }
        obs.inc("immersion.ladder.no_convergence");
        obs.add("immersion.ladder.escalations", (rungs.len() - 1) as u64);
        spans.exit(obs);
        Err(last.unwrap_or_else(|| invalid_ladder("no rungs")))
    }

    /// The coupled fixed point `x = G(x)` on the state
    /// `x = (tj, oil_hot, oil_cold)`. One evaluation of `G` runs the
    /// circulation solve, sink convection, the ε-NTU exchanger balance,
    /// the chiller and the temperature-dependent chip power. Each step
    /// is an [`Anderson`] step mixed with `damping`; a step its safeguard
    /// rejects is the plain damped blend toward `G(x)`. Converged once
    /// `|Δtj| + |Δoil_hot|` of `G(x) − x` falls below 1e-7 K, accepting
    /// the damped blend of that last update.
    fn solve_damped(
        &self,
        damping: f64,
        max_iter: usize,
        obs: &Registry,
    ) -> Result<SteadyReport, CoreError> {
        let model = PowerModel::for_part(self.module.ccb().part());
        let stack = self.chip_stack();
        // the water side sits at the chiller setpoint whatever the oil does
        let water = rcs_fluids::Coolant::water().state(self.bath.chiller.setpoint());
        let c_water: ThermalCapacityRate =
            (self.bath.water_flow * water.density) * water.specific_heat;

        // One network build and one solver context for the whole fixed
        // point: every iteration's hydraulic solve after the first
        // warm-starts from the previous iteration's flows.
        let circulation = self.circulation_network()?;
        let mut ctx = circulation.as_ref().map(|(net, _)| net.solver_context());

        let mut tj = Celsius::new(45.0);
        let mut oil_hot = self.bath.chiller.setpoint() + TempDelta::from_kelvins(8.0);
        let mut oil_cold = oil_hot;
        let mut flow = VolumeFlow::ZERO;
        let mut pump_electrical = Power::ZERO;
        let mut velocity = Velocity::from_meters_per_second(0.0);
        let mut converged = false;
        let mut iterations = 0;
        let mut last_step = None;
        let mut mixer = Anderson::new(damping);

        for iter in 0..max_iter {
            iterations = iter + 1;
            let oil_bulk = Celsius::new(0.5 * (oil_hot.degrees() + oil_cold.degrees()));
            let oil_state = self.bath.coolant.state(oil_bulk);
            let (q, p_elec) = match (&circulation, &mut ctx) {
                (Some((net, bath_branch)), Some(ctx)) => {
                    self.circulation_solve(net, *bath_branch, &oil_state, ctx, obs)?
                }
                _ => {
                    obs.inc("immersion.circulation.calls");
                    obs.inc("immersion.circulation.stagnant");
                    (VolumeFlow::ZERO, Power::ZERO)
                }
            };
            flow = q;
            pump_electrical = p_elec;
            velocity = self.bath.approach_velocity(flow);

            let chip_p = model.power(self.op, tj);
            // pump heat also lands in the bath
            let total =
                self.module.total_heat(self.op, tj) + pump_heat(&self.bath, pump_electrical);

            let c_oil: ThermalCapacityRate = (flow * oil_state.density) * oil_state.specific_heat;
            let eps = self.bath.exchanger.effectiveness(c_oil, c_water);
            let c_min =
                ThermalCapacityRate::new(c_oil.watts_per_kelvin().min(c_water.watts_per_kelvin()));
            let supply = self.bath.chiller.supply_temperature(total);

            // duty balance: total = eps * C_min * (oil_hot - supply)
            let new_hot = supply
                + TempDelta::from_kelvins(
                    total.watts() / (eps * c_min.watts_per_kelvin()).max(1e-9),
                );
            let new_cold = new_hot - total / c_oil;
            // the hottest chip bathes in the warmest oil
            let new_tj = new_hot + chip_p * stack.total_resistance(&oil_state, velocity);

            let step = (new_tj - tj).kelvins().abs() + (new_hot - oil_hot).kelvins().abs();
            last_step = Some(step);
            let x = [tj.degrees(), oil_hot.degrees(), oil_cold.degrees()];
            let g = [new_tj.degrees(), new_hot.degrees(), new_cold.degrees()];
            let next = if step < 1e-7 {
                converged = true;
                damped_blend(x, g, damping)
            } else {
                mixer.step(x, g)
            };
            [tj, oil_hot, oil_cold] = next.map(Celsius::new);
            if converged {
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
        // the chiller rejects everything that crossed the exchanger:
        // module heat plus the pump heat deposited in the bath
        let rejected = total + pump_heat(&self.bath, pump_electrical);
        Ok(SteadyReport {
            architecture: "open-loop immersion",
            module: self.module.name().to_owned(),
            chip_power: chip_p,
            junction: tj,
            coolant_cold: oil_cold,
            coolant_hot: oil_hot,
            total_heat: total,
            coolant_flow: flow,
            sink_velocity: velocity,
            circulation_power: pump_electrical,
            chiller_power: self.bath.chiller.electrical_power(rejected),
            iterations,
        })
    }

    /// Per-chip junction temperatures along one board's flow direction.
    ///
    /// Oil enters a board at the cold bath temperature and heats up chip
    /// by chip, so the streamwise-last FPGA is the "maximum FPGA
    /// temperature" the paper reports. Returns one entry per chip
    /// position, upstream first.
    ///
    /// # Errors
    ///
    /// Propagates coupled-solver failures.
    pub fn chip_profile(&self) -> Result<Vec<(usize, Celsius)>, CoreError> {
        let steady = self.solve()?;
        let chips_per_board = self.module.ccb().compute_fpga_count();
        let boards = self.module.ccb_count() as f64;
        let (oil, r, _) = self.lumped_plant(&steady);
        // each board gets an equal share of the circulated flow
        let per_board_flow = VolumeFlow::from_cubic_meters_per_second(
            steady.coolant_flow.cubic_meters_per_second() / boards,
        );
        let c_board: ThermalCapacityRate = (per_board_flow * oil.density) * oil.specific_heat;
        let chip_p = steady.chip_power;
        // board overhead heats the stream too, spread evenly
        let overhead_per_chip = Power::from_watts(
            (self
                .module
                .ccb()
                .board_power(self.op, steady.junction)
                .watts()
                - chip_p.watts() * chips_per_board as f64)
                / chips_per_board as f64,
        );

        let mut local = steady.coolant_cold;
        let mut profile = Vec::with_capacity(chips_per_board);
        for i in 0..chips_per_board {
            // the chip sees oil warmed by everything upstream plus half of
            // its own heat (mid-chip reference)
            let half = Power::from_watts(0.5 * (chip_p + overhead_per_chip).watts());
            let mid = local + half / c_board;
            profile.push((i, mid + chip_p * r));
            local += (chip_p + overhead_per_chip) / c_board;
        }
        Ok(profile)
    }

    /// Simulates the module warm-up from a cold start (Fig. 2's heat
    /// test): lumped chip-field and bath nodes against the chilled-water
    /// boundary. Records an `immersion.warmup.calls` counter plus the
    /// telemetry of the embedded steady solve (the standard
    /// [`ImmersionModel::LADDER`] through
    /// [`ImmersionModel::solve_with_ladder`]: `immersion.ladder.*`
    /// counters, trace samples and spans) and the counters of the
    /// transient integration (`thermal.transient.*`) into `sinks`, and
    /// the chip-field and bath temperature series into the
    /// `immersion.warmup.chip` / `immersion.warmup.bath` channels of
    /// `sinks.trace` (bounded — long warm-ups are decimated
    /// deterministically).
    ///
    /// # Errors
    ///
    /// Propagates substrate failures.
    pub fn warmup(
        &self,
        duration: Seconds,
        step: Seconds,
        sinks: Sinks<'_>,
    ) -> Result<WarmupTrace, CoreError> {
        let mut session = WarmupSession::new(self, duration, step, sinks)?;
        while session.step() {}
        Ok(session.finish(sinks))
    }

    /// The two-node lumped plant around a solved steady state, read at
    /// the bulk oil temperature ½(hot + cold): the bulk oil state, one
    /// chip's junction→oil resistance and the bath→water exchanger
    /// resistance 1 / (ε·C_min).
    pub(crate) fn lumped_plant(
        &self,
        steady: &SteadyReport,
    ) -> (FluidState, ThermalResistance, ThermalResistance) {
        let oil = self.bath.coolant.state(Celsius::new(
            0.5 * (steady.coolant_hot.degrees() + steady.coolant_cold.degrees()),
        ));
        let r_sink = self
            .chip_stack()
            .total_resistance(&oil, steady.sink_velocity);
        let water = rcs_fluids::Coolant::water().state(self.bath.chiller.setpoint());
        let c_oil = (steady.coolant_flow * oil.density) * oil.specific_heat;
        let c_water = (self.bath.water_flow * water.density) * water.specific_heat;
        let eps = self.bath.exchanger.effectiveness(c_oil, c_water);
        let c_min = c_oil.watts_per_kelvin().min(c_water.watts_per_kelvin());
        let r_hx = ThermalResistance::from_kelvin_per_watt(1.0 / (eps * c_min).max(1e-9));
        (oil, r_sink, r_hx)
    }

    /// Builds the two-node warm-up network (chip field + oil bath
    /// against the chilled-water boundary) around the solved steady
    /// state, recording the steady solve's telemetry into `sinks`.
    fn warmup_network(
        &self,
        sinks: Sinks<'_>,
    ) -> Result<(ThermalNetwork, NodeId, NodeId), CoreError> {
        // Freeze the convection operating point at the solved steady state
        // so the transient uses consistent resistances.
        let steady = self.solve_with_ladder(&Self::LADDER, sinks)?;
        let (oil_state, r_sink, r_hx) = self.lumped_plant(&steady);
        let chips = self.module.compute_fpga_count() as f64;
        let r_field = ThermalResistance::from_kelvin_per_watt(r_sink.kelvin_per_watt() / chips);

        // capacitances: chip + sink mass per FPGA ~ 150 J/K; the bath is
        // ~60 L of oil
        let mut net = ThermalNetwork::new();
        let chip_node = net.add_node_with_capacitance("chip field", 150.0 * chips);
        let oil_mass_kg = 0.060 * oil_state.density.kg_per_cubic_meter();
        let bath_node = net.add_node_with_capacitance(
            "oil bath",
            oil_mass_kg * oil_state.specific_heat.joules_per_kg_kelvin(),
        );
        let water_node = net.add_boundary("chilled water", self.bath.chiller.setpoint());
        net.connect(chip_node, bath_node, r_field)?;
        net.connect(bath_node, water_node, r_hx)?;
        net.add_heat(chip_node, self.module.fpga_heat(self.op, steady.junction))?;
        net.add_heat(
            bath_node,
            steady.total_heat - self.module.fpga_heat(self.op, steady.junction),
        )?;
        Ok((net, chip_node, bath_node))
    }
}

/// Rejects a ladder [`ImmersionModel::solve_with_ladder`] cannot run:
/// no rungs, a damping outside `(0, 1]` or a zero iteration budget.
fn check_ladder(rungs: &[(f64, usize)]) -> Result<(), CoreError> {
    if rungs.is_empty() {
        return Err(invalid_ladder("no rungs"));
    }
    match rungs
        .iter()
        .find(|&&(d, n)| !(d > 0.0 && d <= 1.0) || n == 0)
    {
        Some(rung) => Err(invalid_ladder(&format!(
            "rung {rung:?} needs a damping in (0, 1] and a max_iter above 0"
        ))),
        None => Ok(()),
    }
}

fn invalid_ladder(reason: &str) -> CoreError {
    CoreError::InvalidConfiguration {
        reason: format!("immersion ladder: {reason}"),
    }
}

/// How many past `(Δx, Δf)` pairs an [`Anderson`] step mixes.
const ANDERSON_DEPTH: usize = 2;

/// Smallest `sin²` of the angle between the two residual differences
/// that still counts as two independent directions. Below it the 2×2
/// normal equations are too ill-conditioned to trust.
const ANDERSON_MIN_SIN2: f64 = 1e-8;

/// The plain damped step: the blend `(1 − β)·x + β·g` toward the update
/// `g = G(x)`. With `β = 0.5` it is the average of state and update.
fn damped_blend(x: [f64; 3], g: [f64; 3], beta: f64) -> [f64; 3] {
    let keep = 1.0 - beta;
    std::array::from_fn(|i| keep * x[i] + beta * g[i])
}

fn dot(a: &[f64; 3], b: &[f64; 3]) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

/// Safeguarded Anderson acceleration (Walker & Ni, SIAM J. Numer. Anal.
/// 49, 2011) of depth [`ANDERSON_DEPTH`] for the fixed point `x = G(x)`
/// on the three-temperature immersion state, with mixing factor `β`.
///
/// With residual `f = G(x) − x` and the last few differences `Δx_j`,
/// `Δf_j` of successive states and residuals, a step solves
/// `min_γ ‖f − Σ γ_j Δf_j‖₂` and moves to
/// `x + β·f − Σ γ_j (Δx_j + β·Δf_j)`. Without history that is the
/// damped blend. When the least-squares problem is ill-conditioned
/// (collinear differences, a zero difference) or the step is not finite,
/// the history is cleared and the step is the damped blend, so the
/// damping ladders keep their shape. The history is a few fixed-size
/// arrays: nothing goes on the heap.
#[derive(Debug)]
struct Anderson {
    beta: f64,
    dx: [[f64; 3]; ANDERSON_DEPTH],
    df: [[f64; 3]; ANDERSON_DEPTH],
    /// Valid history columns, oldest overwritten first.
    len: usize,
    /// The column the next difference overwrites.
    head: usize,
    /// The previous state and residual.
    last: Option<([f64; 3], [f64; 3])>,
}

impl Anderson {
    fn new(beta: f64) -> Self {
        Self {
            beta,
            dx: [[0.0; 3]; ANDERSON_DEPTH],
            df: [[0.0; 3]; ANDERSON_DEPTH],
            len: 0,
            head: 0,
            last: None,
        }
    }

    /// The next state from state `x` and its update `g = G(x)`.
    fn step(&mut self, x: [f64; 3], g: [f64; 3]) -> [f64; 3] {
        let f: [f64; 3] = std::array::from_fn(|i| g[i] - x[i]);
        if let Some((x0, f0)) = self.last.replace((x, f)) {
            self.dx[self.head] = std::array::from_fn(|i| x[i] - x0[i]);
            self.df[self.head] = std::array::from_fn(|i| f[i] - f0[i]);
            self.head = (self.head + 1) % ANDERSON_DEPTH;
            self.len = (self.len + 1).min(ANDERSON_DEPTH);
        }
        let damped = damped_blend(x, g, self.beta);
        if self.len == 0 {
            return damped;
        }
        if let Some(gamma) = self.mixing_weights(&f) {
            let beta = self.beta;
            let next: [f64; 3] = std::array::from_fn(|i| {
                (0..self.len).fold(damped[i], |acc, j| {
                    acc - gamma[j] * (self.dx[j][i] + beta * self.df[j][i])
                })
            });
            if next.iter().all(|v| v.is_finite()) {
                return next;
            }
        }
        // safeguard: forget the history, take the plain damped step
        self.len = 0;
        self.head = 0;
        damped
    }

    /// The least-squares weights `γ` over the valid history columns,
    /// from the normal equations; `None` when they are ill-conditioned
    /// or not finite.
    fn mixing_weights(&self, f: &[f64; 3]) -> Option<[f64; ANDERSON_DEPTH]> {
        let [d0, d1] = &self.df;
        let gamma = if self.len == 1 {
            let a = dot(d0, d0);
            if a.is_nan() || a <= 0.0 {
                return None;
            }
            [dot(d0, f) / a, 0.0]
        } else {
            let (a00, a01, a11) = (dot(d0, d0), dot(d0, d1), dot(d1, d1));
            let det = a00 * a11 - a01 * a01;
            if det.is_nan() || det <= ANDERSON_MIN_SIN2 * a00 * a11 {
                return None;
            }
            let (b0, b1) = (dot(d0, f), dot(d1, f));
            [(a11 * b0 - a01 * b1) / det, (a00 * b1 - a01 * b0) / det]
        };
        gamma.iter().all(|v| v.is_finite()).then_some(gamma)
    }
}

/// A resumable warm-up: [`ImmersionModel::warmup`] hoisted onto the
/// `rcs-kernel` stepping kernel.
///
/// The session owns the warm-up network (a pure function of the model,
/// rebuilt on resume) and the embedded [`rcs_thermal::TransientSession`] carrying
/// all mutable state. [`WarmupSession::checkpoint`] seals that state —
/// sinks included — into versioned bytes; [`WarmupSession::resume`]
/// reconstructs a session that finishes **bitwise** identically to one
/// that was never interrupted.
#[derive(Debug)]
pub struct WarmupSession {
    net: ThermalNetwork,
    chip_node: NodeId,
    bath_node: NodeId,
    inner: rcs_thermal::TransientSession,
}

/// Snapshot kind tag of [`WarmupSession::checkpoint`] bytes.
pub const WARMUP_SNAPSHOT_KIND: &str = "core.warmup";

impl WarmupSession {
    /// Solves the steady state, builds the warm-up network and prepares
    /// the integration — recording exactly the telemetry the
    /// uninterrupted warm-up records up to its first step.
    ///
    /// # Errors
    ///
    /// Same contract as [`ImmersionModel::warmup`].
    pub fn new(
        model: &ImmersionModel,
        duration: Seconds,
        step: Seconds,
        sinks: Sinks<'_>,
    ) -> Result<Self, CoreError> {
        let obs = sinks.obs;
        obs.inc("immersion.warmup.calls");
        let (net, chip_node, bath_node) = model.warmup_network(sinks)?;
        obs.inc("thermal.transient.calls");
        let initial = net.uniform_initial(model.bath.chiller.setpoint());
        match rcs_thermal::TransientSession::new(&net, &initial, duration, step) {
            Ok(inner) => Ok(Self {
                net,
                chip_node,
                bath_node,
                inner,
            }),
            Err(e) => {
                obs.inc("thermal.transient.errors");
                Err(e.into())
            }
        }
    }

    /// Advances one integration step. Returns `false` once the horizon
    /// is reached (the call is then a no-op).
    pub fn step(&mut self) -> bool {
        self.inner.step(&self.net)
    }

    /// Advances at most `max_steps` steps; returns how many ran.
    pub fn run(&mut self, max_steps: u64) -> u64 {
        self.inner.run(&self.net, max_steps)
    }

    /// `true` once the horizon is reached.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }

    /// Records the end-of-run telemetry (transient step counters into
    /// `sinks.obs`, the `immersion.warmup.chip` / `immersion.warmup.bath`
    /// series into `sinks.trace`) and yields the warm-up trace.
    #[must_use]
    pub fn finish(self, sinks: Sinks<'_>) -> WarmupTrace {
        use rcs_obs::trace::ChannelKind;
        let warmup = WarmupTrace {
            trace: self.inner.finish(&self.net, sinks),
            chip_node: self.chip_node,
            bath_node: self.bath_node,
        };
        let trace = sinks.trace;
        if trace.is_enabled() {
            let chip = trace.channel("immersion.warmup.chip", ChannelKind::Temperature);
            let bath = trace.channel("immersion.warmup.bath", ChannelKind::Temperature);
            for (t, temp) in warmup.chip_series() {
                trace.record(chip, t.seconds(), temp.degrees());
            }
            for (t, temp) in warmup.bath_series() {
                trace.record(bath, t.seconds(), temp.degrees());
            }
        }
        warmup
    }

    /// Seals the warm-up state — the embedded transient session plus
    /// the contents of `sinks`, the span sink's open stack included —
    /// into versioned snapshot bytes. The network itself is not
    /// captured; it is a pure function of the model and is rebuilt on
    /// [`WarmupSession::resume`].
    #[must_use]
    pub fn checkpoint(&self, sinks: Sinks<'_>) -> Vec<u8> {
        rcs_kernel::seal(WARMUP_SNAPSHOT_KIND, &self.inner.checkpoint(sinks))
    }

    /// Reconstructs a session from [`WarmupSession::checkpoint`] bytes,
    /// rebuilding the warm-up network from `model` (silently — its
    /// construction telemetry is already inside the snapshot) and
    /// restoring the captured sinks into `sinks`.
    ///
    /// # Errors
    ///
    /// [`rcs_kernel::SnapshotError`] on corrupted or truncated bytes, a
    /// snapshot of a different kind, or a `model` whose warm-up network
    /// does not match the captured state.
    pub fn resume(
        model: &ImmersionModel,
        bytes: &[u8],
        sinks: Sinks<'_>,
    ) -> Result<Self, rcs_kernel::SnapshotError> {
        let inner_bytes = rcs_kernel::open(WARMUP_SNAPSHOT_KIND, bytes)?;
        // The network is derived state: rebuild it under disabled sinks
        // (the original construction's telemetry is part of the captured
        // sink state, so re-recording it would double-count).
        let (net, chip_node, bath_node) = model.warmup_network(Sinks::disabled()).map_err(|e| {
            rcs_kernel::SnapshotError::Malformed(format!("model rejected on resume: {e}"))
        })?;
        let inner = rcs_thermal::TransientSession::resume(&net, inner_bytes, sinks)?;
        Ok(Self {
            net,
            chip_node,
            bath_node,
            inner,
        })
    }
}

/// The warm-up time series of [`ImmersionModel::warmup`].
#[derive(Debug, Clone)]
pub struct WarmupTrace {
    trace: TransientTrace,
    chip_node: NodeId,
    bath_node: NodeId,
}

impl WarmupTrace {
    /// Chip-field temperature series.
    #[must_use]
    pub fn chip_series(&self) -> Vec<(Seconds, Celsius)> {
        self.trace.series(self.chip_node)
    }

    /// Bath (heat-transfer agent) temperature series.
    #[must_use]
    pub fn bath_series(&self) -> Vec<(Seconds, Celsius)> {
        self.trace.series(self.bath_node)
    }

    /// Final chip-field temperature.
    #[must_use]
    pub fn final_chip_temperature(&self) -> Celsius {
        self.trace.final_temperature(self.chip_node)
    }

    /// Final bath temperature.
    #[must_use]
    pub fn final_bath_temperature(&self) -> Celsius {
        self.trace.final_temperature(self.bath_node)
    }

    /// Time for the chip field to settle within `tolerance_k` of its final
    /// value.
    #[must_use]
    pub fn settling_time(&self, tolerance_k: f64) -> Seconds {
        self.trace
            .settling_time(self.chip_node, tolerance_k)
            .expect("warmup traces are never empty")
    }

    /// The underlying network trace.
    #[must_use]
    pub fn trace(&self) -> &TransientTrace {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skat_meets_the_papers_design_point() {
        // §3: agent <= 30 °C, FPGA <= 55 °C, 91 W per FPGA, 8736 W total.
        let r = ImmersionModel::skat().solve().unwrap();
        assert!(r.coolant_hot.degrees() <= 30.0, "oil = {}", r.coolant_hot);
        assert!(r.junction.degrees() <= 55.0, "Tj = {}", r.junction);
        assert!(
            (r.chip_power.watts() - 91.0).abs() < 4.0,
            "P = {}",
            r.chip_power
        );
        let fpga_total = r.chip_power.watts() * 96.0;
        assert!((fpga_total - 8736.0).abs() < 400.0, "total = {fpga_total}");
    }

    #[test]
    fn skat_has_headroom_for_ultrascale_plus() {
        // §3's conclusion: "the designed immersion liquid cooling system
        // has a reserve and can provide effective cooling for ... the
        // advanced Xilinx UltraScale+ FPGA family."
        let r = ImmersionModel::skat_plus().solve().unwrap();
        assert!(
            r.junction.degrees() <= 67.5,
            "SKAT+ must stay within the reliability window: {}",
            r.junction
        );
        // hotter than SKAT, as §4 expects ("approach again their critical
        // values")
        let skat = ImmersionModel::skat().solve().unwrap();
        assert!(r.junction > skat.junction);
    }

    /// One circulation operating-point solve at bulk oil temperature
    /// `oil_c`, on a fresh network and context.
    fn circulation(m: &ImmersionModel, oil_c: f64, obs: &Registry) -> (VolumeFlow, Power) {
        let (net, bath_branch) = m.circulation_network().unwrap().expect("a pump survives");
        let oil = m.bath.coolant.state(Celsius::new(oil_c));
        m.circulation_solve(&net, bath_branch, &oil, &mut net.solver_context(), obs)
            .unwrap()
    }

    #[test]
    fn circulation_operating_point_is_sane() {
        let m = ImmersionModel::skat();
        let (flow, electrical) = circulation(&m, 28.0, Registry::disabled());
        let lpm = flow.as_liters_per_minute();
        assert!(lpm > 150.0 && lpm < 900.0, "flow = {lpm} L/min");
        assert!(electrical.watts() > 50.0 && electrical.watts() < 3000.0);
    }

    #[test]
    fn warm_oil_circulates_faster() {
        let m = ImmersionModel::skat();
        let (cold, _) = circulation(&m, 10.0, Registry::disabled());
        let (warm, _) = circulation(&m, 40.0, Registry::disabled());
        assert!(warm > cold);
    }

    #[test]
    fn washed_out_paste_raises_junction_but_src_tim_does_not() {
        let fresh = ImmersionModel::skat()
            .with_tim(TimMaterial::StandardPaste)
            .solve()
            .unwrap();
        let aged = ImmersionModel::skat()
            .with_tim(TimMaterial::StandardPaste)
            .with_aging(TimAging::immersed_months(24.0))
            .solve()
            .unwrap();
        assert!((aged.junction - fresh.junction).kelvins() > 1.5);

        let src_fresh = ImmersionModel::skat().solve().unwrap();
        let src_aged = ImmersionModel::skat()
            .with_aging(TimAging::immersed_months(24.0))
            .solve()
            .unwrap();
        assert!((src_aged.junction - src_fresh.junction).kelvins().abs() < 0.01);
    }

    #[test]
    fn lower_utilization_runs_cooler() {
        let full = ImmersionModel::skat().solve().unwrap();
        let half = ImmersionModel::skat()
            .with_operating_point(OperatingPoint::at_utilization(0.5))
            .solve()
            .unwrap();
        assert!(half.junction < full.junction);
        assert!(half.total_heat < full.total_heat);
    }

    #[test]
    fn warmup_settles_to_the_steady_state() {
        let m = ImmersionModel::skat();
        let steady = m.solve().unwrap();
        let trace = m
            .warmup(Seconds::hours(4.0), Seconds::new(2.0), Sinks::disabled())
            .unwrap();
        // the lumped 2-node warm-up should land near the coupled solve
        let chip_final = trace.final_chip_temperature();
        assert!(
            (chip_final.degrees() - steady.junction.degrees()).abs() < 6.0,
            "warmup {} vs steady {}",
            chip_final,
            steady.junction
        );
        // bath settles near the hot-oil temperature
        assert!(
            (trace.final_bath_temperature().degrees() - steady.coolant_hot.degrees()).abs() < 6.0
        );
        // and it takes minutes, not seconds (the oil mass is big)
        assert!(trace.settling_time(0.5).seconds() > 120.0);
    }

    #[test]
    fn chip_profile_rises_along_the_flow() {
        let model = ImmersionModel::skat();
        let profile = model.chip_profile().unwrap();
        assert_eq!(profile.len(), 8);
        for w in profile.windows(2) {
            assert!(w[1].1 > w[0].1, "streamwise heating must be monotone");
        }
        // the hottest chip stays within the paper's envelope and near the
        // lumped solve's junction figure
        let steady = model.solve().unwrap();
        let hottest = profile.last().unwrap().1;
        assert!(hottest.degrees() <= 55.0, "hottest chip {hottest}");
        assert!((hottest.degrees() - steady.junction.degrees()).abs() < 3.0);
        // and the first chip is visibly cooler
        assert!((hottest - profile[0].1).kelvins() > 0.3);
    }

    /// Every field bit for bit: `{:?}` prints each float's shortest
    /// round-trip form, so it tells apart what `==` would not (±0).
    fn assert_same_bits(a: &SteadyReport, b: &SteadyReport) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn plain_solve_is_bitwise_the_robust_ladders_rung_zero() {
        for model in [ImmersionModel::skat(), ImmersionModel::skat_plus()] {
            let obs = Registry::new();
            let ladder = model
                .solve_with_ladder(&ImmersionModel::LADDER, Sinks::counters(&obs))
                .unwrap();
            let snap = obs.snapshot();
            assert_eq!(snap.counter("immersion.ladder.calls"), 1);
            let rung = snap.histogram("immersion.ladder.rung").unwrap();
            assert_eq!(rung.counts, vec![1, 0, 0, 0]);
            assert_eq!(snap.counter("hydraulics.ladder.escalations"), 0);
            // the rack model solves with `solve()` and the benchmark's
            // rack shadow replay with `solve_robust_spanned`: both run
            // this ladder, so both must equal rung 0 run alone, with
            // telemetry on or off
            assert_same_bits(&model.solve().unwrap(), &ladder);
            let rung_zero =
                model.solve_with_ladder(&ImmersionModel::LADDER[..1], Sinks::disabled());
            assert_same_bits(&rung_zero.unwrap(), &ladder);
        }
    }

    #[test]
    fn a_stalled_rung_escalates_to_the_next_and_its_report_is_that_rungs_alone() {
        let model = ImmersionModel::skat();
        let obs = Registry::new();
        let escalated = model
            .solve_with_ladder(&[(0.5, 2), (0.5, 120)], Sinks::counters(&obs))
            .unwrap();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("immersion.ladder.escalations"), 1);
        let rung = snap.histogram("immersion.ladder.rung").unwrap();
        assert_eq!(rung.counts, vec![0, 1, 0, 0], "converged on rung 1");
        // the abandoned rung's two iterations are charged as work too
        assert_eq!(
            snap.counter("profile.immersion.fixed_point_iterations"),
            2 + escalated.iterations as u64
        );
        // every rung starts cold, so rung 1 alone lands on the same bits
        let direct = model.solve_with_ladder(&[(0.5, 120)], Sinks::disabled());
        assert_same_bits(&escalated, &direct.unwrap());
    }

    #[test]
    fn a_ladder_it_cannot_run_is_an_invalid_configuration_not_a_panic() {
        let model = ImmersionModel::skat();
        let bad: [&[(f64, usize)]; 5] = [
            &[],
            &[(0.0, 120)],
            &[(1.5, 120)],
            &[(f64::NAN, 120)],
            &[(0.5, 120), (0.25, 0)],
        ];
        for rungs in bad {
            let obs = Registry::new();
            let err = model.solve_with_ladder(rungs, Sinks::counters(&obs));
            assert!(
                matches!(err, Err(CoreError::InvalidConfiguration { .. })),
                "{rungs:?}"
            );
            // rejected before any work or telemetry
            assert_eq!(obs.snapshot(), Registry::new().snapshot(), "{rungs:?}");
        }
        // a damping of exactly 1 is the undamped fixed point, a valid rung
        assert!(model
            .solve_with_ladder(&[(1.0, 120)], Sinks::disabled())
            .is_ok());
    }

    #[test]
    fn paper_design_points_converge_on_rung_zero_within_15_iterations() {
        // E5 and E9: the SKAT and SKAT+ modules; E7: the same modules and
        // every module solve of the two 12-module shared-chiller racks
        // (that the modules land on rung 0 is pinned by
        // `plain_solve_is_bitwise_the_robust_ladders_rung_zero`)
        for model in [ImmersionModel::skat(), ImmersionModel::skat_plus()] {
            let report = model.solve().unwrap();
            assert!(report.iterations <= 15, "{} iterations", report.iterations);
        }
        for rack in [
            crate::RackImmersionModel::skat_rack(12),
            crate::RackImmersionModel::skat_plus_rack(12),
        ] {
            for module in rack.solve().unwrap().per_module {
                assert!(module.iterations <= 15, "{} iterations", module.iterations);
            }
        }
    }

    /// Drives a mixer on `G` from `x0` until the update moves the state
    /// by less than 1e-12; returns the state and the iteration count.
    fn iterate(
        mixer: &mut Anderson,
        g: impl Fn([f64; 3]) -> [f64; 3],
        x0: [f64; 3],
    ) -> ([f64; 3], usize) {
        let mut x = x0;
        for iter in 1..=200 {
            let gx = g(x);
            if (0..3).map(|i| (gx[i] - x[i]).abs()).sum::<f64>() < 1e-12 {
                return (x, iter);
            }
            x = mixer.step(x, gx);
        }
        panic!("no convergence from {x0:?}");
    }

    #[test]
    fn anderson_without_history_is_the_damped_blend() {
        let mut mixer = Anderson::new(0.25);
        let (x, g) = ([45.0, 28.0, 25.0], [50.0, 30.0, 24.0]);
        let step = mixer.step(x, g);
        assert_eq!(step, damped_blend(x, g, 0.25));
        assert_eq!(step, [46.25, 28.5, 24.75]);
    }

    #[test]
    fn a_zero_residual_difference_falls_back_to_the_damped_step() {
        // the same state and update twice: Δf = 0, a singular 1×1 system
        let mut mixer = Anderson::new(0.5);
        let (x, g) = ([45.0, 28.0, 25.0], [46.0, 28.5, 24.0]);
        mixer.step(x, g);
        let step = mixer.step(x, g);
        assert_eq!(step, damped_blend(x, g, 0.5));
        assert_eq!(mixer.len, 0, "the safeguard clears the history");
    }

    #[test]
    fn a_collinear_history_falls_back_to_the_damped_step_and_converges() {
        // an isotropic contraction maps every state difference to a
        // parallel residual difference; three states on one line give
        // two collinear history columns and singular normal equations
        let fixed = [52.0, 29.0, 26.5];
        let g = |x: [f64; 3]| -> [f64; 3] {
            std::array::from_fn(|i| fixed[i] + 0.8 * (x[i] - fixed[i]))
        };
        let mut mixer = Anderson::new(0.5);
        let x0 = [45.0, 28.0, 28.0];
        let shift = [1.0, 2.0, -1.0];
        let x1: [f64; 3] = std::array::from_fn(|i| x0[i] + shift[i]);
        let x2: [f64; 3] = std::array::from_fn(|i| x1[i] + 2.0 * shift[i]);
        mixer.step(x0, g(x0));
        mixer.step(x1, g(x1));
        let step = mixer.step(x2, g(x2));
        assert_eq!(step, damped_blend(x2, g(x2), 0.5), "collinear: damped step");
        assert_eq!(mixer.len, 0, "the safeguard clears the history");
        let (x, _) = iterate(&mut mixer, g, step);
        assert!(x.iter().all(|v| v.is_finite()));
        for i in 0..3 {
            assert!((x[i] - fixed[i]).abs() < 1e-9, "{x:?}");
        }
    }

    #[test]
    fn a_non_finite_update_is_a_damped_step_not_a_panic() {
        let mut mixer = Anderson::new(0.5);
        mixer.step([45.0, 28.0, 25.0], [46.0, 28.5, 24.0]);
        let poisoned = [f64::NAN, 29.0, 24.5];
        let step = mixer.step([45.5, 28.25, 24.5], poisoned);
        assert!(step[0].is_nan());
        assert_eq!(mixer.len, 0);
        // and a coupled solve with no circulation at all (every pump
        // gone, no stagnation model) ends in a structured error
        let err = ImmersionModel::skat()
            .with_pump_curves(Vec::new())
            .solve()
            .unwrap_err();
        assert!(matches!(err, CoreError::NoConvergence { .. }), "{err}");
    }

    #[test]
    fn anderson_beats_the_damped_blend_on_a_coupled_contraction() {
        // a non-symmetric linear contraction with a slow mode, the shape
        // of the junction ← leakage power ← oil temperature coupling
        let g = |x: [f64; 3]| -> [f64; 3] {
            [
                30.0 + 0.9 * x[1] + 0.05 * x[0],
                20.0 + 0.03 * x[0] + 0.6 * x[1],
                0.95 * x[1] - 1.0,
            ]
        };
        let x0 = [45.0, 28.0, 28.0];
        let (fast, accelerated) = iterate(&mut Anderson::new(0.5), g, x0);
        // the damped blend alone: a mixer whose history never survives
        let mut picard = 0;
        let mut x = x0;
        loop {
            picard += 1;
            let gx = g(x);
            if (0..3).map(|i| (gx[i] - x[i]).abs()).sum::<f64>() < 1e-12 {
                break;
            }
            x = damped_blend(x, gx, 0.5);
        }
        for i in 0..3 {
            assert!((fast[i] - x[i]).abs() < 1e-9);
        }
        assert!(accelerated * 3 < picard, "{accelerated} vs {picard}");
    }

    #[test]
    fn stagnant_bath_records_stagnation_not_hydraulics() {
        let obs = Registry::new();
        let model = ImmersionModel::skat().with_pump_curves(Vec::new());
        assert!(model.circulation_network().unwrap().is_none());
        // one fixed-point iteration: one stagnant circulation, no solve
        let _ = model.solve_damped(0.5, 1, &obs);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("immersion.circulation.stagnant"), 1);
        assert_eq!(snap.counter("hydraulics.ladder.calls"), 0);
    }

    #[test]
    fn warmup_telemetry_spans_the_solver_and_the_transient() {
        let obs = Registry::new();
        let trace = ImmersionModel::skat()
            .warmup(
                Seconds::hours(1.0),
                Seconds::new(2.0),
                Sinks::counters(&obs),
            )
            .unwrap();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("immersion.warmup.calls"), 1);
        // the embedded steady solve ran the standard ladder once
        assert_eq!(snap.counter("immersion.ladder.calls"), 1);
        assert_eq!(snap.counter("immersion.ladder.converged"), 1);
        assert_eq!(snap.counter("thermal.transient.calls"), 1);
        assert_eq!(
            snap.counter("thermal.transient.steps"),
            trace.trace().len() as u64
        );
    }

    #[test]
    fn immersion_overhead_beats_air() {
        let immersion = ImmersionModel::skat().solve().unwrap();
        let air = crate::AirCooledModel::for_module(rcs_platform::presets::taygeta())
            .solve()
            .unwrap();
        assert!(immersion.cooling_overhead() < air.cooling_overhead());
    }

    #[test]
    fn warmup_session_checkpoint_resume_is_bitwise_identical() {
        use rcs_obs::trace::TraceRecorder;

        let model = ImmersionModel::skat();
        let duration = Seconds::minutes(30.0);
        let step = Seconds::new(5.0); // 360 steps

        let obs_ref = Registry::new();
        let trace_ref = TraceRecorder::new();
        let sinks_ref = Sinks {
            obs: &obs_ref,
            trace: &trace_ref,
            ..Sinks::disabled()
        };
        let reference = model.warmup(duration, step, sinks_ref).unwrap();

        for k in [0u64, 1, 179, 359, 360] {
            let obs_a = Registry::new();
            let trace_a = TraceRecorder::new();
            let sinks_a = Sinks {
                obs: &obs_a,
                trace: &trace_a,
                ..Sinks::disabled()
            };
            // built on the same channels as the reference, whose
            // embedded steady solve also traces its ladder
            let mut session = WarmupSession::new(&model, duration, step, sinks_a).unwrap();
            session.run(k);
            let bytes = session.checkpoint(sinks_a);

            let obs_b = Registry::new();
            let trace_b = TraceRecorder::new();
            let sinks_b = Sinks {
                obs: &obs_b,
                trace: &trace_b,
                ..Sinks::disabled()
            };
            let mut resumed =
                WarmupSession::resume(&model, &bytes, sinks_b).expect("snapshot opens");
            while resumed.step() {}
            assert!(resumed.is_finished());
            let warmup = resumed.finish(sinks_b);

            assert_eq!(
                warmup.chip_series(),
                reference.chip_series(),
                "chip series diverged at split {k}"
            );
            assert_eq!(
                warmup.bath_series(),
                reference.bath_series(),
                "bath series diverged at split {k}"
            );
            assert_eq!(
                warmup.final_chip_temperature().degrees().to_bits(),
                reference.final_chip_temperature().degrees().to_bits(),
                "final chip temp diverged at split {k}"
            );
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
        }
    }

    #[test]
    fn corrupt_warmup_snapshot_is_a_structured_error() {
        let model = ImmersionModel::skat();
        let obs = Registry::new();
        let mut session = WarmupSession::new(
            &model,
            Seconds::minutes(10.0),
            Seconds::new(5.0),
            Sinks::counters(&obs),
        )
        .unwrap();
        session.run(17);
        let bytes = session.checkpoint(Sinks::counters(&obs));

        let mut flipped = bytes.clone();
        flipped[bytes.len() / 3] ^= 0x40;
        assert!(
            WarmupSession::resume(&model, &flipped, Sinks::counters(&Registry::new())).is_err()
        );
        assert!(WarmupSession::resume(
            &model,
            &bytes[..bytes.len() - 5],
            Sinks::counters(&Registry::new())
        )
        .is_err());
    }
}
