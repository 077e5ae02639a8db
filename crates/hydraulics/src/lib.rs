//! Incompressible pipe-network hydraulics for computational-module cooling.
//!
//! This crate solves the steady flow distribution of the paper's
//! heat-transfer loops: a pump and chiller feeding supply/return manifolds
//! with parallel circulation loops, one per computational module (Fig. 5).
//! It implements:
//!
//! - [`HydraulicNetwork`] — junction/branch network construction, where
//!   each branch is a series of [`Element`]s: Darcy-Weisbach pipes, minor
//!   losses, trim/balancing [`Valve`]s and [`PumpCurve`]s.
//! - A global-gradient (Todini-style Newton) solver returning per-branch
//!   flows and nodal pressures with mass-conservation residuals. Every
//!   solve runs a retry ladder ([`SolveOptions::ladder`]): full Newton
//!   steps first, then damped re-solves for stiff networks.
//!   [`HydraulicNetwork::solve`] runs it on a fresh context; repeated
//!   solves of the same topology call
//!   [`HydraulicNetwork::solve_with_ladder`] through a reused
//!   [`SolverContext`] — a cached sparse elimination schedule plus a
//!   warm-start seed from the neighboring solution.
//! - [`layout`] — builders for the two manifold topologies the paper
//!   compares: conventional **direct-return** and the suggested
//!   **reverse-return (Tichelmann)** arrangement whose equal path lengths
//!   self-balance the loops without balancing valves.
//! - [`balance`] — flow-distribution metrics (spread, coefficient of
//!   variation) and an automatic balancing-valve trim algorithm for the
//!   direct-return baseline.
//!
//! # Examples
//!
//! Six identical loops on a reverse-return manifold stay balanced within a
//! fraction of the direct-return imbalance:
//!
//! ```
//! use rcs_fluids::Coolant;
//! use rcs_hydraulics::{balance, layout};
//! use rcs_units::Celsius;
//!
//! let water = Coolant::water().state(Celsius::new(20.0));
//! let plan = layout::rack_manifold(6, layout::ReturnStyle::Reverse);
//! let solution = plan.network.solve(&water)?;
//! let flows = plan.loop_flows(&solution);
//! assert!(balance::spread(&flows).expect("six loops") < 1.10);
//! # Ok::<(), rcs_hydraulics::HydraulicError>(())
//! ```

#![warn(missing_docs)]

pub mod balance;
mod elements;
mod error;
pub mod layout;
mod network;
mod solution;
mod solver;

pub use elements::{Element, Pipe, PumpCurve, Valve};
pub use error::{ConvergenceDiagnostics, HydraulicError, SolveAttempt};
pub use network::{BranchId, HydraulicNetwork, JunctionId};
pub use solution::HydraulicSolution;
pub use solver::{SolveOptions, SolverContext};
