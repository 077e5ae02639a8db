//! Thermal modeling substrate for immersion-cooled reconfigurable systems.
//!
//! This crate provides the heat-path physics the paper's prototypes were
//! measured against:
//!
//! - [`ThermalNetwork`] — lumped thermal resistance networks with named
//!   nodes, boundary temperatures and heat sources, solved to steady state
//!   by dense elimination ([`ThermalNetwork::solve_steady`]) or integrated
//!   in time with per-node capacitances
//!   ([`ThermalNetwork::solve_transient`]).
//! - [`HeatSink`] — bare-lid, plate-fin and the paper's solder **pin-fin
//!   turbulator** sink geometries, turning coolant state + velocity into a
//!   sink thermal resistance via the `rcs-fluids` correlations.
//! - [`ThermalInterface`] — thermal interface materials including the §2
//!   washout-degradation model for ordinary paste immersed in oil, and the
//!   SRC-designed washout-proof interface.
//! - [`PlateHeatExchanger`] — ε-NTU counterflow/parallel plate exchanger
//!   (the heat-exchange section of a SKAT computational module), with an
//!   LMTD cross-check.
//! - [`Chiller`] — the external industrial chiller supplying secondary
//!   cooling water.
//! - [`ChipStack`] — the junction→case→TIM→sink→coolant path of one FPGA,
//!   composing the above into a per-chip resistance.
//!
//! # Examples
//!
//! A single 91 W FPGA in 30 °C oil through a pin-fin sink:
//!
//! ```
//! use rcs_fluids::Coolant;
//! use rcs_thermal::{ChipStack, HeatSink, PinFinSink, ThermalInterface, TimMaterial};
//! use rcs_units::{Celsius, Length, Power, ThermalResistance, Velocity};
//!
//! let stack = ChipStack::new(
//!     ThermalResistance::from_kelvin_per_watt(0.09),
//!     ThermalInterface::new(TimMaterial::SrcDesigned,
//!                           Length::millimeters(0.05),
//!                           Length::millimeters(42.5) * Length::millimeters(42.5)),
//!     HeatSink::PinFin(PinFinSink::skat_default()),
//! );
//! let oil = Coolant::src_dielectric().state(Celsius::new(30.0));
//! let r = stack.total_resistance(&oil, Velocity::from_meters_per_second(0.4));
//! let tj = Celsius::new(30.0) + Power::from_watts(91.0) * r;
//! assert!(tj < Celsius::new(60.0));
//! ```

#![warn(missing_docs)]

mod chiller;
mod error;
mod exchanger;
mod network;
mod sink;
mod stack;
mod tim;
mod transient;

pub use chiller::Chiller;
pub use error::ThermalError;
pub use exchanger::{FlowArrangement, PlateHeatExchanger};
pub use network::{NodeId, ResistorId, SteadySolution, ThermalNetwork};
pub use sink::{BarePlate, HeatSink, PinFinSink, PlateFinSink, SinkMaterial};
pub use stack::ChipStack;
pub use tim::{ThermalInterface, TimAging, TimMaterial};
pub use transient::{TransientSession, TransientTrace};
