//! Minimal numerical kernels for the `rcs-sim` solvers.
//!
//! Implemented from scratch so that the workspace has no external numeric
//! dependencies: a dense row-major matrix with LU-style Gaussian
//! elimination ([`Matrix::solve`]), a sparse graph-elimination kernel
//! with reusable symbolic analysis ([`SparseSymbolic`]), a fixed-step
//! fourth-order Runge-Kutta step ([`ode::rk4_step`]), a deterministic
//! xoshiro256++ generator with the exponential/Poisson draws and the
//! stream-splitting jumps the Monte-Carlo studies need ([`rng`]), and
//! the shared order statistics they report ([`stats`]).
//!
//! The kernels are sized for the problems in this workspace — thermal
//! networks of a few hundred nodes and hydraulic networks of a few
//! dozen junctions. The dense path stays as the reference and
//! cross-check; solvers that re-factor the same incidence structure
//! every Newton iteration use [`SparseSymbolic`] to pay the symbolic
//! analysis once and replay a precomputed elimination schedule per
//! iteration.
//!
//! # Examples
//!
//! ```
//! use rcs_numeric::Matrix;
//!
//! let mut a = Matrix::zeros(2, 2);
//! a[(0, 0)] = 2.0;
//! a[(1, 1)] = 4.0;
//! let x = a.solve(&[2.0, 8.0])?;
//! assert_eq!(x, vec![1.0, 2.0]);
//! # Ok::<(), rcs_numeric::NumericError>(())
//! ```

#![warn(missing_docs)]

pub mod hash;
mod matrix;
pub mod ode;
pub mod rng;
mod sparse;
pub mod stats;

pub use matrix::{Matrix, NumericError};
pub use sparse::SparseSymbolic;
