//! Heat-transfer agent models for reconfigurable computer system cooling.
//!
//! This crate models every cooling medium that appears in Levin et al.'s
//! immersion-cooling paper — air, water, water/glycol, the MD-4.5 white
//! mineral oil circulated inside "SKAT" computational modules, and the
//! dielectric coolant designed by SRC SC&NC — together with the
//! dimensionless groups and engineering convection correlations needed by
//! the thermal and hydraulic solvers.
//!
//! # Organization
//!
//! - [`Coolant`] — a named fluid with temperature-dependent properties
//!   (density, specific heat, thermal conductivity, dynamic viscosity)
//!   obtained by interpolating tabulated state points, plus the
//!   electrical/safety traits behind the §2 coolant requirements.
//! - [`FluidState`] — all properties evaluated at one temperature, with
//!   derived quantities (Prandtl number, volumetric heat capacity).
//! - [`correlations`] — Nusselt-number correlations for forced
//!   convection (Dittus-Boelter, Gnielinski, Zukauskas pin banks, flat
//!   plates) returning typed heat-transfer coefficients.
//!
//! # Examples
//!
//! Reproduce the paper's §2 claim that liquids carry 1500–4000x more heat
//! per unit volume than air:
//!
//! ```
//! use rcs_fluids::Coolant;
//! use rcs_units::Celsius;
//!
//! let t = Celsius::new(25.0);
//! let ratio = Coolant::water().state(t).volumetric_heat_capacity()
//!     / Coolant::air().state(t).volumetric_heat_capacity();
//! assert!(ratio > 1500.0 && ratio < 4000.0);
//! ```

#![warn(missing_docs)]

mod coolant;
pub mod correlations;
mod dimensionless;
mod error;
pub mod humidity;
mod state;
mod table;

pub use coolant::{Coolant, SafetyTraits};
pub use dimensionless::{Nusselt, Prandtl, Reynolds};
pub use error::FluidError;
pub use state::FluidState;
pub use table::{PropertyRow, PropertyTable};
