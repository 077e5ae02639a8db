//! The RCS performance estimate.
//!
//! An RCS maps the information graph of a task onto the FPGA field as
//! hardwired pipelines, so sustained performance scales with (logic
//! capacity × pipeline clock × utilization): every `CELLS_PER_OPERATION`
//! logic cells implement one operation pipeline that retires one operation
//! per cycle. The coefficient is calibrated so that the paper's rack-level
//! claim holds: not less than 12 new-generation modules in a 47U rack
//! exceed 1 PFlops (§5).

use crate::part::FpgaPart;

/// A computation rate in (32-bit-equivalent) operations per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct ComputeRate(f64);

impl ComputeRate {
    /// Wraps a raw rate in operations per second.
    #[must_use]
    pub(crate) const fn from_ops_per_second(ops: f64) -> Self {
        Self(ops)
    }

    /// The raw rate in operations per second.
    #[must_use]
    pub const fn ops_per_second(self) -> f64 {
        self.0
    }

    /// The rate in teraflops (10¹² op/s).
    #[must_use]
    pub fn as_teraflops(self) -> f64 {
        self.0 / 1e12
    }

    /// The rate in petaflops (10¹⁵ op/s).
    #[must_use]
    pub fn as_petaflops(self) -> f64 {
        self.0 / 1e15
    }
}

impl core::ops::Add for ComputeRate {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl core::iter::Sum for ComputeRate {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        Self(iter.map(|r| r.0).sum())
    }
}

impl core::ops::Mul<f64> for ComputeRate {
    type Output = Self;
    fn mul(self, rhs: f64) -> Self {
        Self(self.0 * rhs)
    }
}

impl core::fmt::Display for ComputeRate {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.0 >= 1e15 {
            write!(f, "{:.2} PFlops", self.as_petaflops())
        } else if self.0 >= 1e12 {
            write!(f, "{:.2} TFlops", self.as_teraflops())
        } else {
            write!(f, "{:.2} GFlops", self.0 / 1e9)
        }
    }
}

/// Logic cells consumed by one hardwired operation pipeline.
///
/// Calibrated against §5: 12 modules × 96 UltraScale-class FPGAs ≥ 1 PFlops.
pub(crate) const CELLS_PER_OPERATION: f64 = 550.0;

/// Peak rate of one part: every `CELLS_PER_OPERATION` cells retire one
/// operation per design-clock cycle.
///
/// # Examples
///
/// ```
/// use rcs_devices::{performance, FpgaPart};
/// let per_chip = performance::peak_ops(&FpgaPart::xcku095());
/// assert!(per_chip.as_teraflops() > 0.8); // ~0.9 TFlops per KU095
/// ```
#[must_use]
pub fn peak_ops(part: &FpgaPart) -> ComputeRate {
    ComputeRate::from_ops_per_second(
        part.logic_cells() as f64 / CELLS_PER_OPERATION * part.design_clock().hertz(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_step_v7_to_ku095_is_2_9x() {
        let r = peak_ops(&FpgaPart::xcku095()).ops_per_second()
            / peak_ops(&FpgaPart::xc7vx485t()).ops_per_second();
        assert!((r - 2.9).abs() < 0.1, "ratio = {r}");
    }

    #[test]
    fn skat_vs_taygeta_8_7x() {
        // 96 KU095 chips vs 32 V7 chips
        let skat = peak_ops(&FpgaPart::xcku095()).ops_per_second() * 96.0;
        let taygeta = peak_ops(&FpgaPart::xc7vx485t()).ops_per_second() * 32.0;
        let r = skat / taygeta;
        assert!((r - 8.7).abs() < 0.3, "ratio = {r}");
    }

    #[test]
    fn ultrascale_plus_triples_skat() {
        // §4: UltraScale+ gives a three-fold increase at the same size.
        let r = peak_ops(&FpgaPart::vu9p_class()).ops_per_second()
            / peak_ops(&FpgaPart::xcku095()).ops_per_second();
        assert!((r - 3.0).abs() < 0.15, "ratio = {r}");
    }

    #[test]
    fn rack_of_12_skat_plus_modules_exceeds_a_petaflops() {
        // §5: "not less than 12 new-generation CMs, with a total
        // performance above 1 PFlops, in a single 47U computer rack".
        let rack = peak_ops(&FpgaPart::vu9p_class()).ops_per_second() * 96.0 * 12.0;
        assert!(rack / 1e15 > 1.0, "rack = {} PFlops", rack / 1e15);
    }

    #[test]
    fn display_picks_scale() {
        assert!(ComputeRate::from_ops_per_second(5e9)
            .to_string()
            .ends_with("GFlops"));
        assert!(ComputeRate::from_ops_per_second(5e12)
            .to_string()
            .ends_with("TFlops"));
        assert!(ComputeRate::from_ops_per_second(5e15)
            .to_string()
            .ends_with("PFlops"));
    }

    #[test]
    fn rates_sum() {
        let chip = peak_ops(&FpgaPart::xcku095());
        let module: ComputeRate = (0..96).map(|_| chip).sum();
        assert!((module.ops_per_second() - chip.ops_per_second() * 96.0).abs() < 1.0);
    }
}
