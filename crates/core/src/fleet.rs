//! Fleet simulation: a rack's whole service life in one run.
//!
//! The paper's individual claims — immersion keeps junctions cool (§3),
//! cool junctions extend component life (§1), self-contained coolant
//! loops localize maintenance (§2/§3), designed materials hold their
//! parameters (§2/§3) — compound over years of operation. This module
//! integrates them: a seeded, month-stepped simulation of a 12-module
//! rack that ages the materials, re-solves the thermal state, draws
//! cooling-system failures and junction-temperature-accelerated chip
//! failures, charges every repair its maintenance blast radius, and
//! accounts the compute actually delivered.

use rcs_numeric::rng::Rng;

use rcs_cooling::maintenance::{service_catalog, BlastRadius, PlumbingTopology};
use rcs_cooling::risk;
use rcs_cooling::{ColdPlateLoop, CoolingArchitecture, ImmersionBath};
use rcs_devices::reliability;
use rcs_fluids::Coolant;
use rcs_platform::presets;
use rcs_thermal::{TimAging, TimMaterial};
use rcs_units::{Celsius, HOURS_PER_YEAR};

use crate::coldplate::ColdPlateModel;
use crate::error::CoreError;
use crate::immersion::ImmersionModel;

/// Hours in one simulated month.
const HOURS_PER_MONTH: f64 = HOURS_PER_YEAR / 12.0;

/// The material/architecture configurations the fleet simulator compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FleetConfig {
    /// SKAT as designed: immersion, SRC TIM, SRC coolant, self-contained
    /// module loops.
    ImmersionDesigned,
    /// Immersion built from commodity materials: standard paste (washes
    /// out) and MD-4.5 oil (ages), still self-contained.
    ImmersionCommodity,
    /// Closed-loop cold plates (per-chip), with their leak/dew-point risk
    /// and shared-loop maintenance.
    ColdPlates,
}

impl core::fmt::Display for FleetConfig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Self::ImmersionDesigned => "immersion, SRC-designed materials",
            Self::ImmersionCommodity => "immersion, commodity materials",
            Self::ColdPlates => "closed-loop cold plates",
        })
    }
}

/// Outcome of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// Configuration simulated.
    pub config: FleetConfig,
    /// Service horizon, years.
    pub years: f64,
    /// Modules in the rack.
    pub modules: usize,
    /// Mean junction temperature over the horizon, °C.
    pub mean_junction_c: f64,
    /// Junction at end of life, °C (materials fully aged).
    pub final_junction_c: f64,
    /// Chip replacements over the horizon (junction-accelerated wear).
    pub chip_failures: f64,
    /// Cooling-system failure events over the horizon.
    pub cooling_events: f64,
    /// Whole-rack maintenance stoppages over the horizon.
    pub rack_stoppages: f64,
    /// Uptime fraction (module-hours delivered / module-hours possible).
    pub availability: f64,
    /// Compute actually delivered, PFlops-years (performance × uptime).
    pub delivered_pflops_years: f64,
}

/// A seeded fleet simulator for a rack of SKAT-class modules.
///
/// # Examples
///
/// ```
/// use rcs_core::{FleetConfig, FleetSimulation};
///
/// let outcome = FleetSimulation::new(12, 5.0, 42)
///     .run(FleetConfig::ImmersionDesigned)?;
/// assert!(outcome.availability > 0.99);
/// # Ok::<(), rcs_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FleetSimulation {
    modules: usize,
    years: f64,
    seed: u64,
}

impl FleetSimulation {
    /// Creates a simulator for `modules` modules over `years` years.
    ///
    /// # Panics
    ///
    /// Panics if `modules == 0` or `years <= 0`.
    #[must_use]
    pub fn new(modules: usize, years: f64, seed: u64) -> Self {
        assert!(modules > 0, "a fleet needs at least one module");
        assert!(years > 0.0, "service horizon must be positive");
        Self {
            modules,
            years,
            seed,
        }
    }

    /// Solves the thermal state of one module at the given service age.
    fn junction_at(&self, config: FleetConfig, service_years: f64) -> Result<Celsius, CoreError> {
        match config {
            FleetConfig::ImmersionDesigned => {
                let mut bath = ImmersionBath::skat_default();
                bath.coolant = Coolant::src_dielectric().aged(service_years);
                ImmersionModel::new(presets::skat(), bath)
                    .with_aging(TimAging::immersed_months(service_years * 12.0))
                    .solve()
                    .map(|r| r.junction)
            }
            FleetConfig::ImmersionCommodity => {
                let mut bath = ImmersionBath::skat_default();
                bath.coolant = Coolant::mineral_oil_md45().aged(service_years);
                ImmersionModel::new(presets::skat(), bath)
                    .with_tim(TimMaterial::StandardPaste)
                    .with_aging(TimAging::immersed_months(service_years * 12.0))
                    .solve()
                    .map(|r| r.junction)
            }
            FleetConfig::ColdPlates => ColdPlateModel::for_module(presets::skat())
                .solve()
                .map(|r| r.junction),
        }
    }

    fn architecture(config: FleetConfig) -> CoolingArchitecture {
        match config {
            FleetConfig::ImmersionDesigned | FleetConfig::ImmersionCommodity => {
                CoolingArchitecture::Immersion(ImmersionBath::skat_default())
            }
            FleetConfig::ColdPlates => {
                CoolingArchitecture::ColdPlate(ColdPlateLoop::per_chip_plates(96))
            }
        }
    }

    fn topology(config: FleetConfig) -> PlumbingTopology {
        match config {
            FleetConfig::ImmersionDesigned | FleetConfig::ImmersionCommodity => {
                PlumbingTopology::SelfContainedModules
            }
            FleetConfig::ColdPlates => PlumbingTopology::ColdPlateLoop,
        }
    }

    /// Runs the simulation for one configuration.
    ///
    /// Month by month: the thermal state is re-solved at the current
    /// material age (quarterly — materials drift slowly); chip failures
    /// are drawn from the junction-temperature-dependent FIT rate over
    /// the whole rack; cooling failure classes and routine maintenance
    /// are drawn from their annual rates; every event charges downtime
    /// at its blast radius. Deterministic for a fixed seed.
    ///
    /// # Errors
    ///
    /// Propagates coupled-solver failures.
    pub fn run(&self, config: FleetConfig) -> Result<FleetOutcome, CoreError> {
        // Common random numbers with stream separation: each failure
        // process gets its own identically-seeded stream across
        // configurations, and the Poisson sampler consumes exactly one
        // uniform per draw, so identical processes produce identical
        // events and config-to-config differences isolate the treatment
        // effect (standard Monte-Carlo variance reduction).
        let mut chip_rng = Rng::seed_from_u64(self.seed.wrapping_add(1));
        let mut cooling_rng = Rng::seed_from_u64(self.seed.wrapping_add(2));
        let mut maint_rng = Rng::seed_from_u64(self.seed.wrapping_add(3));
        let months = (self.years * 12.0).round() as usize;
        let chips_per_module = 96usize;
        let n = self.modules as f64;

        // Risk classes model unplanned failures; the maintenance catalog
        // models planned service. A component may appear in both (pump
        // *failure* vs pump *service*) — that is corrective plus
        // preventive work, not double counting.
        let cooling_classes = risk::failure_classes(&Self::architecture(config));
        let maintenance = service_catalog(Self::topology(config));
        let per_module_perf = presets::skat().peak_performance().as_petaflops();

        let mut junction = self.junction_at(config, 0.0)?;
        let mut junction_sum = 0.0;
        let mut chip_failures = 0.0;
        let mut cooling_events = 0.0;
        let mut rack_stoppages = 0.0;
        let mut lost_module_hours = 0.0;

        for month in 0..months {
            let service_years = month as f64 / 12.0;
            // materials drift slowly: re-solve quarterly
            if month % 3 == 0 {
                junction = self.junction_at(config, service_years)?;
            }
            junction_sum += junction.degrees();

            // chip wear-out at this junction temperature, whole rack
            let fit = reliability::failure_rate_fit(junction);
            let chip_rate_month = fit * 1e-9 * HOURS_PER_MONTH * chips_per_module as f64 * n;
            let failures = draw_poisson(&mut chip_rng, chip_rate_month);
            chip_failures += failures;
            // replacing a chip means replacing its CCB: the catalog's
            // first action is the board swap in every topology
            let board_swap = &maintenance[0];
            lost_module_hours += failures
                * board_swap.duration_hours
                * match board_swap.blast_radius {
                    BlastRadius::Rack => {
                        rack_stoppages += failures;
                        n
                    }
                    BlastRadius::Module => 1.0,
                    BlastRadius::None => 0.0,
                };

            // cooling-system failures
            for class in &cooling_classes {
                let events = draw_poisson(&mut cooling_rng, class.rate_per_year / 12.0 * n);
                cooling_events += events;
                lost_module_hours += events * class.consequence.downtime_hours;
            }

            // routine maintenance beyond board swaps
            for action in maintenance.iter().skip(1) {
                let events = draw_poisson(&mut maint_rng, action.rate_per_module_year / 12.0 * n);
                lost_module_hours += events
                    * action.duration_hours
                    * match action.blast_radius {
                        BlastRadius::Rack => {
                            rack_stoppages += events;
                            n
                        }
                        BlastRadius::Module => 1.0,
                        BlastRadius::None => 0.0,
                    };
            }
        }

        let possible_module_hours = n * self.years * HOURS_PER_YEAR;
        let availability = 1.0 - (lost_module_hours / possible_module_hours).min(1.0);
        Ok(FleetOutcome {
            config,
            years: self.years,
            modules: self.modules,
            mean_junction_c: junction_sum / months as f64,
            final_junction_c: self.junction_at(config, self.years)?.degrees(),
            chip_failures,
            cooling_events,
            rack_stoppages,
            availability,
            delivered_pflops_years: per_module_perf * n * self.years * availability,
        })
    }

    /// Runs all three configurations, in parallel on the default worker
    /// count.
    ///
    /// Each configuration's `run` already draws from its own
    /// seed-derived streams, so the configs are independent work items;
    /// results come back in the fixed `ImmersionDesigned`,
    /// `ImmersionCommodity`, `ColdPlates` order and are bit-identical to
    /// running the three serially.
    ///
    /// # Errors
    ///
    /// Propagates coupled-solver failures.
    pub(crate) fn run_all(&self) -> Result<Vec<FleetOutcome>, CoreError> {
        self.run_all_with_threads(rcs_parallel::thread_count())
    }

    /// `FleetSimulation::run_all` with an explicit worker count.
    ///
    /// # Errors
    ///
    /// Propagates coupled-solver failures.
    pub fn run_all_with_threads(&self, threads: usize) -> Result<Vec<FleetOutcome>, CoreError> {
        let configs = vec![
            FleetConfig::ImmersionDesigned,
            FleetConfig::ImmersionCommodity,
            FleetConfig::ColdPlates,
        ];
        rcs_parallel::par_map_indexed(configs, threads, |_, c| self.run(c))
            .into_iter()
            .collect()
    }

    /// Runs one configuration across many seeds on `threads` workers —
    /// the service-life *distribution* rather than one history.
    ///
    /// Every seed is an independent work item (its own stream family via
    /// `seed.wrapping_add(..)`), results are returned in `seeds` order,
    /// and the outcome vector is bit-identical at every thread count.
    ///
    /// # Errors
    ///
    /// Propagates coupled-solver failures.
    pub fn sweep_seeds_with_threads(
        &self,
        config: FleetConfig,
        seeds: &[u64],
        threads: usize,
    ) -> Result<Vec<FleetOutcome>, CoreError> {
        rcs_parallel::par_map_indexed(seeds.to_vec(), threads, |_, seed| {
            Self::new(self.modules, self.years, seed).run(config)
        })
        .into_iter()
        .collect()
    }
}

/// One Poisson draw with mean `lambda`, as an `f64` event count.
///
/// Delegates to [`Rng::poisson`], which consumes exactly one uniform
/// (keeping common-random-number streams synchronized across
/// configurations) and is monotone in `lambda` for a fixed draw (a
/// higher failure rate can never produce fewer events from the same
/// randomness) — the property the fleet comparisons rely on.
fn draw_poisson(rng: &mut Rng, lambda: f64) -> f64 {
    rng.poisson(lambda) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet() -> FleetSimulation {
        FleetSimulation::new(12, 5.0, 20180401)
    }

    #[test]
    fn deterministic_per_seed() {
        let a = fleet().run(FleetConfig::ImmersionDesigned).unwrap();
        let b = fleet().run(FleetConfig::ImmersionDesigned).unwrap();
        assert_eq!(a, b);
        let c = FleetSimulation::new(12, 5.0, 7)
            .run(FleetConfig::ImmersionDesigned)
            .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn designed_immersion_delivers_the_most_compute() {
        let outcomes = fleet().run_all().unwrap();
        let designed = &outcomes[0];
        for other in &outcomes[1..] {
            assert!(
                designed.delivered_pflops_years >= other.delivered_pflops_years,
                "{designed:?} vs {other:?}"
            );
        }
        assert!(designed.availability > 0.99);
    }

    #[test]
    fn commodity_materials_run_hotter_and_fail_more_chips() {
        let outcomes = fleet().run_all().unwrap();
        let designed = &outcomes[0];
        let commodity = &outcomes[1];
        assert!(commodity.mean_junction_c > designed.mean_junction_c);
        assert!(commodity.final_junction_c > commodity.mean_junction_c - 1.0);
        // hotter junctions accelerate wear-out (statistical, but the 5-year
        // 12-module sample is large enough for the ordering to hold at this
        // seed)
        assert!(commodity.chip_failures >= designed.chip_failures);
    }

    #[test]
    fn cold_plates_pay_in_rack_stoppages_and_availability() {
        let outcomes = fleet().run_all().unwrap();
        let designed = &outcomes[0];
        let plates = &outcomes[2];
        assert_eq!(designed.rack_stoppages, 0.0);
        assert!(plates.rack_stoppages > 0.0);
        assert!(plates.availability < designed.availability);
    }

    #[test]
    fn chip_failure_scale_is_plausible() {
        // 1152 chips at ~50 °C for 5 years at ~150 FIT: a handful of
        // failures, not zero and not hundreds.
        let outcome = fleet().run(FleetConfig::ImmersionDesigned).unwrap();
        assert!(
            outcome.chip_failures > 0.0 && outcome.chip_failures < 60.0,
            "{} chip failures",
            outcome.chip_failures
        );
    }

    #[test]
    fn run_all_is_identical_at_every_thread_count() {
        let serial = fleet().run_all_with_threads(1).unwrap();
        for threads in [2, 4, 7] {
            assert_eq!(
                serial,
                fleet().run_all_with_threads(threads).unwrap(),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn seed_sweep_is_ordered_and_thread_count_invariant() {
        let sim = FleetSimulation::new(4, 2.0, 0);
        let seeds = [11u64, 7, 42, 7, 99];
        let serial = sim
            .sweep_seeds_with_threads(FleetConfig::ColdPlates, &seeds, 1)
            .unwrap();
        // results follow seeds order, and equal seeds give equal outcomes
        assert_eq!(serial.len(), seeds.len());
        assert_eq!(serial[1], serial[3]);
        assert_eq!(
            serial[0],
            FleetSimulation::new(4, 2.0, 11)
                .run(FleetConfig::ColdPlates)
                .unwrap()
        );
        for threads in [2, 4, 7] {
            assert_eq!(
                serial,
                sim.sweep_seeds_with_threads(FleetConfig::ColdPlates, &seeds, threads)
                    .unwrap(),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn poisson_draw_matches_mean() {
        let mut rng = Rng::seed_from_u64(5);
        let lambda = 2.5;
        let n = 4000;
        let total: f64 = (0..n).map(|_| draw_poisson(&mut rng, lambda)).sum();
        let mean = total / f64::from(n);
        assert!((mean - lambda).abs() < 0.1, "mean {mean}");
    }
}
