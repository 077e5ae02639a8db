//! Cooling system designs, control and reliability for RCS modules.
//!
//! Where `rcs-thermal` and `rcs-hydraulics` provide physics, this crate
//! provides the *systems* the paper compares:
//!
//! - [`AirCooling`] — the exhausted baseline: plate-fin towers in a
//!   front-to-back airflow with board-level preheating.
//! - [`ColdPlateLoop`] — closed-loop liquid cooling ("one plate per chip"
//!   / "one plate per board"), with its pressure-tight connection count,
//!   leak hazard and dew-point exposure (§2).
//! - [`ImmersionBath`] — the paper's open-loop immersion system: a sealed
//!   bath of dielectric coolant, circulation pump(s), plate heat
//!   exchanger, secondary chilled-water loop; optionally with SKAT+'s
//!   immersed pumps.
//! - [`control`] — the §2 control subsystem: level/flow/temperature
//!   sensors, setpoints and alarms.
//! - [`faults`] — scripted fault timelines (pump seizure, fouling,
//!   leaks, lying sensors) resolved into degraded-mode physics hooks.
//! - [`plausibility`] — per-channel sensor sanity filters and redundant
//!   median voting, so supervision survives faulty sensors.
//! - [`risk`] / [`availability`] — failure classes per architecture and a
//!   seeded Monte-Carlo availability estimator, reproducing the paper's
//!   qualitative claim that immersion removes the leak and dew-point
//!   failure classes entirely.
//!
//! # Examples
//!
//! ```
//! use rcs_cooling::{risk, ColdPlateLoop, CoolingArchitecture, ImmersionBath};
//!
//! let closed = CoolingArchitecture::ColdPlate(ColdPlateLoop::per_chip_plates(96));
//! let open = CoolingArchitecture::Immersion(ImmersionBath::skat_default());
//! let closed_classes = risk::failure_classes(&closed);
//! let open_classes = risk::failure_classes(&open);
//! // immersion eliminates the destroy-the-electronics leak class
//! assert!(closed_classes.iter().any(|c| c.name.contains("onto electronics")));
//! assert!(!open_classes.iter().any(|c| c.name.contains("onto electronics")));
//! ```

#![warn(missing_docs)]

pub mod availability;
pub mod control;
mod designs;
pub mod faults;
pub mod maintenance;
pub mod plausibility;
pub mod risk;

pub use designs::{
    AirCooling, ColdPlateLoop, CoolingArchitecture, ImmersionBath, PlateGranularity,
};
