//! Boards, power supplies, computational modules and racks.
//!
//! This crate models the physical structure of the paper's reconfigurable
//! computer systems:
//!
//! - [`Ccb`] — a computational circuit board carrying a field of eight
//!   FPGAs (plus, in pre-SKAT+ designs, a separate controller FPGA), with
//!   the 19″-rack width check that drives the §4 redesign for 45 mm
//!   UltraScale+ packages.
//! - [`PowerSupply`] — the immersion DC/DC 380 → 12 V unit, 4 kW per four
//!   boards, with a load-dependent efficiency curve.
//! - [`ComputeModule`] — a computational module: CCBs plus PSUs in a
//!   19″ × N U casing with computational and heat-exchange sections.
//! - [`Rack`] — a 47U rack of modules with aggregate power, performance
//!   and packing-density accounting.
//! - [`presets`] — the four machines the paper names: Rigel-2 (Virtex-6),
//!   Taygeta (Virtex-7), SKAT (Kintex UltraScale) and SKAT+
//!   (UltraScale+), calibrated to the reported module powers.
//!
//! # Examples
//!
//! ```
//! use rcs_platform::presets;
//!
//! let skat = presets::skat();
//! assert_eq!(skat.compute_fpga_count(), 96); // 12 CCBs x 8 FPGAs
//! let density_gain = skat.packing_density_fpga_per_m3()
//!     / presets::taygeta().packing_density_fpga_per_m3();
//! assert!(density_gain > 3.0); // "more than triple increasing"
//! ```

#![warn(missing_docs)]

mod board;
mod module;
pub mod presets;
mod psu;
mod rack;

pub use board::Ccb;
pub use module::ComputeModule;
pub use psu::PowerSupply;
pub use rack::Rack;

/// Usable printed-circuit-board width inside a standard 19″ rack, after
/// rails and guides (the constraint of §4).
pub const USABLE_BOARD_WIDTH_MM: f64 = 450.0;

/// Lateral clearance required around each BGA package for routing and
/// heat-sink overhang.
pub(crate) const PACKAGE_CLEARANCE_MM: f64 = 7.0;
