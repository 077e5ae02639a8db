//! The coupled full-system simulator — the paper's contribution as code.
//!
//! `rcs-core` wires every substrate of the workspace into one model of an
//! immersion-cooled reconfigurable computer system and reproduces the
//! paper's reported numbers from physics rather than assertion:
//!
//! - [`AirCooledModel`] — the exhausted baseline. Its two free parameters
//!   (board-level preheat coefficient, sink-resistance spreading factor)
//!   are calibrated **once** against the paper's two measured anchors
//!   (Rigel-2: +33.1 °C at 1255 W; Taygeta: +47.9 °C at 1661 W) and then
//!   frozen; the Virtex-UltraScale prediction of §1 is produced with no
//!   further tuning.
//! - [`ImmersionModel`] — the SKAT system: pump-curve vs bath-loss
//!   operating point, pin-fin convection from the solved approach
//!   velocity, ε-NTU oil→water exchange, chiller supply, and a fixed-point
//!   iteration over temperature-dependent FPGA leakage. Its headline
//!   outputs (oil ≤ 30 °C, junction ≤ 55 °C at 91 W/chip) *emerge* from
//!   the correlations — the immersion side is calibrated against nothing.
//! - [`ColdPlateModel`] — the closed-loop alternative of §2.
//! - [`rules`] — the paper's design-rule checklist (§3) evaluated against
//!   any report.
//! - [`experiments`] — one function per table/figure of the paper
//!   (E1–E12, F1–F5 in `DESIGN.md`), each returning structured rows that
//!   the `exp_*` binaries print and `rcs-bench` benchmarks.
//!
//! # Examples
//!
//! ```
//! use rcs_core::ImmersionModel;
//!
//! let report = ImmersionModel::skat().solve()?;
//! assert!(report.coolant_hot.degrees() <= 30.0); // §3: agent below 30 °C
//! assert!(report.junction.degrees() <= 55.0);    // §3: FPGA below 55 °C
//! # Ok::<(), rcs_core::CoreError>(())
//! ```

#![warn(missing_docs)]

mod air;
mod coldplate;
mod drill;
mod error;
pub mod experiments;
mod fleet;
mod immersion;
mod rack_model;
mod report;
pub mod rules;

pub use air::AirCooledModel;
pub use coldplate::ColdPlateModel;
pub use drill::{
    ChannelHealth, DrillOutcome, DrillSession, FaultDrill, HardenedSupervisor, RawScan,
    COMPONENT_PROBES, DRILL_SNAPSHOT_KIND, SCAN_DT, SHUTDOWN_MARGIN_K,
};
pub use error::CoreError;
pub use fleet::{FleetConfig, FleetOutcome, FleetSimulation};
pub use immersion::{ImmersionModel, WarmupSession, WarmupTrace, WARMUP_SNAPSHOT_KIND};
pub use rack_model::{RackImmersionModel, RackReport};
pub use report::SteadyReport;
