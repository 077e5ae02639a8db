//! # rcs-sim
//!
//! A simulation library reproducing Levin, Dordopulo, Fedorov &
//! Doronchenko, *"High-Performance Reconfigurable Computer Systems with
//! Immersion Cooling"*: the design space of FPGA-based reconfigurable
//! computer systems (RCS) cooled by open-loop immersion in dielectric
//! coolant, versus the air-cooled and closed-loop alternatives it
//! obsoletes.
//!
//! The paper reports prototype measurements of physical hardware; this
//! workspace substitutes a first-principles multi-physics model for the
//! testbed (see `DESIGN.md` for the substitution map) and regenerates
//! every quantitative claim as an experiment (`rcs_core::experiments`,
//! `EXPERIMENTS.md`).
//!
//! This facade crate re-exports the whole workspace under one name:
//!
//! | module | crate | provides |
//! |---|---|---|
//! | [`units`] | `rcs-units` | typed physical quantities |
//! | [`numeric`] | `rcs-numeric` | dense linear algebra, RK4, RNG, order statistics |
//! | [`parallel`] | `rcs-parallel` | deterministic scoped thread pool for sweeps |
//! | [`obs`] | `rcs-obs` | deterministic telemetry: counters, histograms, manifests |
//! | [`fluids`] | `rcs-fluids` | coolant properties & convection correlations |
//! | [`thermal`] | `rcs-thermal` | resistance networks, sinks, TIMs, exchangers |
//! | [`hydraulics`] | `rcs-hydraulics` | pipe-network solver, manifolds, balancing |
//! | [`devices`] | `rcs-devices` | FPGA catalog, power, performance, reliability |
//! | [`platform`] | `rcs-platform` | boards, modules, racks, presets |
//! | [`cooling`] | `rcs-cooling` | cooling architectures, control, risk |
//! | [`kernel`] | `rcs-kernel` | deterministic stepping kernel with checkpoint/restore |
//! | [`core`] | `rcs-core` | the coupled simulator and experiment harness |
//! | [`query`] | `rcs-query` | design-query service: cached, resilient batch answers |
//! | [`chaos`] | `rcs-chaos` | deterministic fault injection & the E19 chaos drill |
//!
//! # Examples
//!
//! Solve the SKAT computational module end to end:
//!
//! ```
//! use rcs_sim::core::ImmersionModel;
//!
//! let report = ImmersionModel::skat().solve()?;
//! println!("{report}");
//! assert!(report.junction.degrees() <= 55.0);
//! # Ok::<(), rcs_sim::core::CoreError>(())
//! ```

#![warn(missing_docs)]

pub use rcs_chaos as chaos;
pub use rcs_cooling as cooling;
pub use rcs_core as core;
pub use rcs_devices as devices;
pub use rcs_fluids as fluids;
pub use rcs_hydraulics as hydraulics;
pub use rcs_kernel as kernel;
pub use rcs_numeric as numeric;
pub use rcs_obs as obs;
pub use rcs_parallel as parallel;
pub use rcs_platform as platform;
pub use rcs_query as query;
pub use rcs_thermal as thermal;
pub use rcs_units as units;
