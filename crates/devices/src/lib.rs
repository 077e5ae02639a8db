//! FPGA device models: catalog, power, performance and reliability.
//!
//! The paper's computational resource is an "FPGA computational field" of
//! six to eight large Xilinx parts per board, spanning five families:
//! Virtex-6 (the Rigel-2 module), Virtex-7 (Taygeta), Kintex UltraScale
//! (SKAT), UltraScale+ (SKAT+) and a projected "UltraScale 2". This crate
//! provides:
//!
//! - [`FpgaPart`] / `FpgaFamily` — a catalog of the specific parts named
//!   in the paper (XC6VLX240T, XC7VX485T, XCKU095, a VU9P-class
//!   UltraScale+) with logic capacity, clock, package geometry and
//!   junction limits.
//! - [`PowerModel`] — temperature-dependent static leakage plus
//!   utilization- and clock-scaled dynamic power; the coupling that makes
//!   hot chips draw more power, which the coupled solver in `rcs-core`
//!   iterates against the cooling system.
//! - [`performance`] — the logic-cells × clock performance estimate that
//!   reproduces the paper's ×8.7 (SKAT vs Taygeta) and ×3 (SKAT+ vs SKAT)
//!   claims, calibrated so that 12 SKAT+ class modules exceed 1 PFlops.
//! - [`reliability`] — Arrhenius junction-temperature acceleration and the
//!   paper's 65–70 °C "high reliability during a long operation period"
//!   rule.
//!
//! # Examples
//!
//! ```
//! use rcs_devices::{performance, FpgaPart};
//!
//! let taygeta_chip = FpgaPart::xc7vx485t();
//! let skat_chip = FpgaPart::xcku095();
//! let per_chip_gain = performance::peak_ops(&skat_chip).ops_per_second()
//!     / performance::peak_ops(&taygeta_chip).ops_per_second();
//! // x2.9 per chip; x3 more chips per module gives the paper's x8.7.
//! assert!((per_chip_gain - 2.9).abs() < 0.1);
//! ```

#![warn(missing_docs)]

mod family;
mod part;
pub mod performance;
mod power;
pub mod reliability;

pub use part::FpgaPart;
pub use performance::ComputeRate;
pub use power::{OperatingPoint, PowerModel};
