//! Rack-scale coupling: many modules, one chiller, one manifold.
//!
//! The single-module models assume ideal facility water. At rack scale
//! (Fig. 1-b + Fig. 5) the modules share a chiller of finite capacity and
//! a manifold whose layout decides how much secondary water each module
//! actually receives. This model couples both: the manifold solution sets
//! per-module water flows, the summed heat loads the shared chiller, and
//! the chiller's (possibly overloaded) supply temperature feeds back into
//! every module's coupled solve.

use rcs_cooling::ImmersionBath;
use rcs_devices::OperatingPoint;
use rcs_fluids::Coolant;
use rcs_hydraulics::layout::{self, ManifoldParams, ReturnStyle};
use rcs_platform::ComputeModule;
use rcs_thermal::Chiller;
use rcs_units::{Celsius, Power, Pressure, VolumeFlow};

use crate::error::CoreError;
use crate::immersion::ImmersionModel;
use crate::report::SteadyReport;

/// Passes of the shared-chiller fixed point before the rack solve
/// reports [`CoreError::NoConvergence`].
const SUPPLY_PASSES: usize = 20;

/// A rack of identical immersion-cooled modules on a shared secondary
/// loop.
///
/// # Examples
///
/// ```
/// use rcs_core::RackImmersionModel;
///
/// let report = RackImmersionModel::skat_rack(12).solve()?;
/// assert!(report.within_chiller_capacity);
/// assert!(report.junction_spread_k().expect("non-empty rack") < 1.0); // reverse return keeps it tight
/// # Ok::<(), rcs_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RackImmersionModel {
    module: ComputeModule,
    bath_template: ImmersionBath,
    count: usize,
    facility_chiller: Chiller,
    manifold_style: ReturnStyle,
    manifold_params: ManifoldParams,
    op: OperatingPoint,
}

impl RackImmersionModel {
    /// A 47U rack of `count` SKAT modules on a 150 kW facility chiller and
    /// a reverse-return manifold sized for the rack.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    #[must_use]
    pub fn skat_rack(count: usize) -> Self {
        assert!(count > 0, "a rack needs at least one module");
        Self {
            module: rcs_platform::presets::skat(),
            bath_template: ImmersionBath::skat_default(),
            count,
            facility_chiller: Chiller::new(Celsius::new(20.0), Power::kilowatts(150.0), 4.5),
            manifold_style: ReturnStyle::Reverse,
            manifold_params: Self::rack_manifold_params(count),
            op: OperatingPoint::operating_mode(),
        }
    }

    /// A rack of SKAT+ modules (same facility defaults).
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    #[must_use]
    pub fn skat_plus_rack(count: usize) -> Self {
        let mut rack = Self::skat_rack(count);
        rack.module = rcs_platform::presets::skat_plus();
        rack.bath_template = ImmersionBath::skat_plus_default();
        rack
    }

    /// Manifold sizing rule: header diameter grows with sqrt(loops) to
    /// hold header velocity, pump head sized for ~75 L/min per module.
    fn rack_manifold_params(count: usize) -> ManifoldParams {
        ManifoldParams {
            manifold_diameter: rcs_units::Length::millimeters(
                50.0 * (count as f64 / 6.0).sqrt().max(1.0),
            ),
            pump_shutoff: Pressure::kilopascals(180.0),
            pump_max_flow: VolumeFlow::liters_per_minute(150.0 * count as f64),
            ..ManifoldParams::default()
        }
    }

    /// Overrides the facility chiller.
    #[must_use]
    pub fn with_chiller(mut self, chiller: Chiller) -> Self {
        self.facility_chiller = chiller;
        self
    }

    /// Overrides the manifold style (for the direct-return comparison).
    #[must_use]
    pub fn with_manifold_style(mut self, style: ReturnStyle) -> Self {
        self.manifold_style = style;
        self
    }

    /// Overrides the operating point.
    #[must_use]
    pub fn with_operating_point(mut self, op: OperatingPoint) -> Self {
        self.op = op;
        self
    }

    /// Solves the coupled rack: manifold flows → per-module solves →
    /// shared-chiller feedback, iterated to a fixed point. Each pass
    /// solves its modules in parallel on [`rcs_parallel::thread_count`]
    /// workers; see [`RackImmersionModel::solve_with_threads`].
    ///
    /// # Errors
    ///
    /// Propagates substrate and module convergence failures, and returns
    /// [`CoreError::NoConvergence`] when the shared-chiller supply still
    /// moves by 1e-6 K or more in the last of its 20 passes
    /// (`residual_k` is that last move).
    pub fn solve(&self) -> Result<RackReport, CoreError> {
        self.solve_with_threads(rcs_parallel::thread_count())
    }

    /// [`RackImmersionModel::solve`] on an explicit worker count.
    ///
    /// Within one pass every module sees only the pass's supply
    /// temperature, so the modules are independent and are solved with
    /// [`rcs_parallel::par_map_indexed`]. Results come back in module
    /// order, the rack heat is summed in module order and the first
    /// failing module (in module order) decides the error, so the report
    /// is bit-identical at every `threads`, `1` included.
    ///
    /// # Errors
    ///
    /// As [`RackImmersionModel::solve`].
    pub fn solve_with_threads(&self, threads: usize) -> Result<RackReport, CoreError> {
        // 1. Manifold flow distribution at the chiller setpoint. The
        //    distribution is not re-solved if an overloaded chiller raises
        //    the supply a few kelvin: water viscosity shifts the flows by
        //    well under 1 %, far below the solver's other approximations.
        let plan =
            layout::rack_manifold_with(self.count, self.manifold_style, &self.manifold_params);
        let water = Coolant::water().state(self.facility_chiller.setpoint());
        let manifold = plan.network.solve(&water)?;
        let water_flows = plan.loop_flows(&manifold);

        // 2. Fixed point over the shared chiller's supply temperature.
        let mut supply = self.facility_chiller.setpoint();
        let mut residual_k = None;
        for _ in 0..SUPPLY_PASSES {
            let per_module = self.solve_pass(&water_flows, supply, threads)?;
            let total_heat = per_module
                .iter()
                .fold(Power::ZERO, |sum, report| sum + report.total_heat);
            let next_supply = self.facility_chiller.supply_temperature(total_heat);
            let step = (next_supply - supply).kelvins().abs();
            supply = next_supply;
            if step < 1e-6 {
                return Ok(RackReport {
                    per_module,
                    water_flows,
                    chiller_supply: supply,
                    total_heat,
                    within_chiller_capacity: self.facility_chiller.within_capacity(total_heat),
                    chiller_power: self.facility_chiller.electrical_power(total_heat),
                });
            }
            residual_k = Some(step);
        }
        Err(CoreError::NoConvergence {
            iterations: SUPPLY_PASSES,
            residual_k,
        })
    }

    /// One shared-chiller pass: every module's coupled solve at the
    /// supply temperature `supply`, in module order, each through the
    /// standard immersion retry ladder ([`ImmersionModel::solve`]).
    fn solve_pass(
        &self,
        water_flows: &[VolumeFlow],
        supply: Celsius,
        threads: usize,
    ) -> Result<Vec<SteadyReport>, CoreError> {
        rcs_parallel::par_map_indexed(water_flows.to_vec(), threads, |_, flow| {
            let mut bath = self.bath_template.clone();
            bath.water_flow = flow;
            // each module sees the shared supply temperature; capacity
            // accounting happens at the rack level
            bath.chiller = Chiller::new(supply, Power::kilowatts(1e3), self.facility_chiller.cop());
            ImmersionModel::new(self.module.clone(), bath)
                .with_operating_point(self.op)
                .solve()
        })
        .into_iter()
        .collect()
    }
}

/// Solved state of a shared-loop rack.
#[derive(Debug, Clone)]
pub struct RackReport {
    /// Per-module steady reports, in rack order.
    pub per_module: Vec<SteadyReport>,
    /// Secondary water flow delivered to each module by the manifold.
    pub water_flows: Vec<VolumeFlow>,
    /// Facility supply temperature after capacity effects.
    pub chiller_supply: Celsius,
    /// Total rack heat.
    pub total_heat: Power,
    /// `true` if the facility chiller holds its setpoint.
    pub within_chiller_capacity: bool,
    /// Facility chiller electrical power.
    pub chiller_power: Power,
}

impl RackReport {
    /// Hottest junction in the rack, or `None` for an empty module list
    /// (a constructed rack always has at least one module, but a report
    /// must not invent `f64::MIN` °C as a "peak" either way).
    #[must_use]
    pub fn hottest_junction(&self) -> Option<Celsius> {
        self.per_module
            .iter()
            .map(|r| r.junction)
            .reduce(Celsius::max)
    }

    /// Junction spread across modules (hottest minus coolest), in kelvins
    /// — the rack thermal-uniformity metric the manifold layout controls.
    /// `None` for an empty module list.
    #[must_use]
    pub fn junction_spread_k(&self) -> Option<f64> {
        let max = self.hottest_junction()?;
        let min = self
            .per_module
            .iter()
            .map(|r| r.junction)
            .reduce(Celsius::min)?;
        Some((max - min).kelvins())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skat_rack_holds_the_envelope_on_shared_water() {
        let report = RackImmersionModel::skat_rack(12).solve().unwrap();
        assert!(report.within_chiller_capacity, "{:.0}", report.total_heat);
        assert!(
            report.hottest_junction().unwrap().degrees() <= 55.0,
            "{:?}",
            report.hottest_junction()
        );
        assert_eq!(report.per_module.len(), 12);
        // reverse return keeps module-to-module variation small
        assert!(
            report.junction_spread_k().unwrap() < 1.0,
            "{:?} K",
            report.junction_spread_k()
        );
    }

    #[test]
    fn direct_return_rack_is_less_uniform() {
        let reverse = RackImmersionModel::skat_rack(12).solve().unwrap();
        let direct = RackImmersionModel::skat_rack(12)
            .with_manifold_style(ReturnStyle::Direct)
            .solve()
            .unwrap();
        assert!(direct.junction_spread_k().unwrap() > reverse.junction_spread_k().unwrap());
    }

    #[test]
    fn undersized_chiller_raises_every_junction() {
        let nominal = RackImmersionModel::skat_rack(12).solve().unwrap();
        let starved = RackImmersionModel::skat_rack(12)
            .with_chiller(Chiller::new(
                Celsius::new(20.0),
                Power::kilowatts(90.0),
                4.5,
            ))
            .solve()
            .unwrap();
        assert!(!starved.within_chiller_capacity);
        assert!(starved.chiller_supply > nominal.chiller_supply);
        assert!(starved.hottest_junction().unwrap() > nominal.hottest_junction().unwrap());
        // but the immersion headroom still keeps it inside the window
        assert!(starved.hottest_junction().unwrap().degrees() <= 67.5);
    }

    #[test]
    fn skat_plus_rack_needs_the_bigger_chiller() {
        let on_150kw = RackImmersionModel::skat_plus_rack(12).solve().unwrap();
        // ~155 kW of SKAT+ heat overloads the 150 kW facility default
        assert!(!on_150kw.within_chiller_capacity);
        let on_220kw = RackImmersionModel::skat_plus_rack(12)
            .with_chiller(Chiller::new(
                Celsius::new(20.0),
                Power::kilowatts(220.0),
                4.5,
            ))
            .solve()
            .unwrap();
        assert!(on_220kw.within_chiller_capacity);
        assert!(on_220kw.hottest_junction().unwrap() < on_150kw.hottest_junction().unwrap());
    }

    /// The whole report rendered with `{:?}`: every field, and every
    /// `f64` in its shortest round-trip form, so two renders are equal
    /// exactly when the reports are bit-identical.
    fn bits(report: &Result<RackReport, CoreError>) -> String {
        format!("{report:?}")
    }

    #[test]
    fn reports_are_bit_identical_at_every_thread_count() {
        let racks = [
            ("SKAT reverse", RackImmersionModel::skat_rack(6)),
            (
                "SKAT direct",
                RackImmersionModel::skat_rack(6).with_manifold_style(ReturnStyle::Direct),
            ),
            (
                "SKAT+ direct",
                RackImmersionModel::skat_plus_rack(6).with_manifold_style(ReturnStyle::Direct),
            ),
            // ~155 kW on the 150 kW default: an overloaded, multi-pass rack
            ("SKAT+ overloaded", RackImmersionModel::skat_plus_rack(12)),
        ];
        for (name, rack) in racks {
            let serial = rack.solve_with_threads(1);
            assert!(serial.is_ok(), "{name}: {serial:?}");
            for threads in [2, 4, 7] {
                assert_eq!(
                    bits(&rack.solve_with_threads(threads)),
                    bits(&serial),
                    "{name}, threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn a_chiller_fixed_point_that_never_settles_is_an_error() {
        // 12 SKAT modules on a 38 kW chiller: the supply still moves
        // ~3e-5 K at the last pass. At 40 kW the same rack settles.
        let on = |kw: f64| {
            RackImmersionModel::skat_rack(12).with_chiller(Chiller::new(
                Celsius::new(20.0),
                Power::kilowatts(kw),
                4.5,
            ))
        };
        let serial = on(38.0).solve_with_threads(1);
        let Err(CoreError::NoConvergence {
            iterations,
            residual_k: Some(residual_k),
        }) = serial
        else {
            panic!("expected NoConvergence with a residual, got {serial:?}");
        };
        assert_eq!(iterations, SUPPLY_PASSES);
        assert!((1e-6..1e-3).contains(&residual_k), "{residual_k} K");
        for threads in [2, 4, 7] {
            assert_eq!(
                bits(&on(38.0).solve_with_threads(threads)),
                bits(&serial),
                "threads = {threads}"
            );
        }
        let settled = on(40.0).solve_with_threads(1).unwrap();
        assert!(!settled.within_chiller_capacity);
    }

    #[test]
    fn water_flows_come_from_the_manifold() {
        let report = RackImmersionModel::skat_rack(6).solve().unwrap();
        assert_eq!(report.water_flows.len(), 6);
        for q in &report.water_flows {
            let lpm = q.as_liters_per_minute();
            assert!(lpm > 30.0 && lpm < 200.0, "{lpm} L/min");
        }
    }
}
