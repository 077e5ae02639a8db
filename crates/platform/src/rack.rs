//! The computer rack.

use rcs_devices::{ComputeRate, OperatingPoint};
use rcs_units::{Celsius, Power};

use crate::module::ComputeModule;

/// A 19″ computer rack stacking computational modules one over another
/// (Fig. 1-b). "Their number is limited by the dimensions of the rack, by
/// technical capabilities of the computer room, and by the engineering
/// services" (§3).
///
/// # Examples
///
/// ```
/// use rcs_platform::{presets, Rack};
///
/// let rack = Rack::with_modules(47.0, presets::skat_plus(), 12).unwrap();
/// assert!(rack.peak_performance().as_petaflops() > 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Rack {
    height_units: f64,
    /// Rack units consumed by manifolds, switchgear and service clearances.
    service_units: f64,
    modules: Vec<ComputeModule>,
}

impl Rack {
    /// Creates an empty rack of the given height in rack units.
    ///
    /// # Panics
    ///
    /// Panics if the height is not positive.
    #[must_use]
    pub fn new(height_units: f64) -> Self {
        assert!(height_units > 0.0, "rack height must be positive");
        Self {
            height_units,
            service_units: 4.0,
            modules: Vec::new(),
        }
    }

    /// Creates a rack populated with `count` copies of a module.
    ///
    /// Returns `None` if they do not fit.
    #[must_use]
    pub fn with_modules(height_units: f64, module: ComputeModule, count: usize) -> Option<Self> {
        let mut rack = Self::new(height_units);
        for _ in 0..count {
            rack.push(module.clone()).ok()?;
        }
        Some(rack)
    }

    /// Rack units still available for modules.
    #[must_use]
    pub fn free_units(&self) -> f64 {
        self.height_units
            - self.service_units
            - self
                .modules
                .iter()
                .map(ComputeModule::height_units)
                .sum::<f64>()
    }

    /// Mounts a module.
    ///
    /// # Errors
    ///
    /// Returns the module back if there is no room for it.
    // Handing the whole module back on failure is the point of the API
    // (the caller keeps ownership to try another rack), so the large Err
    // variant is intentional.
    #[allow(clippy::result_large_err)]
    pub fn push(&mut self, module: ComputeModule) -> Result<(), ComputeModule> {
        if module.height_units() <= self.free_units() + 1e-9 {
            self.modules.push(module);
            Ok(())
        } else {
            Err(module)
        }
    }

    /// Mounted modules.
    #[must_use]
    pub fn modules(&self) -> &[ComputeModule] {
        &self.modules
    }

    /// Total compute FPGAs in the rack.
    #[must_use]
    pub fn compute_fpga_count(&self) -> usize {
        self.modules
            .iter()
            .map(ComputeModule::compute_fpga_count)
            .sum()
    }

    /// Total peak compute rate.
    #[must_use]
    pub fn peak_performance(&self) -> ComputeRate {
        self.modules
            .iter()
            .map(ComputeModule::peak_performance)
            .sum()
    }

    /// Total heat released by all modules.
    #[must_use]
    pub fn total_heat(&self, op: OperatingPoint, junction: Celsius) -> Power {
        self.modules
            .iter()
            .map(|m| m.total_heat(op, junction))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn twelve_3u_modules_fit_a_47u_rack() {
        // 12 x 3U = 36U + 4U services = 40U <= 47U.
        let rack = Rack::with_modules(47.0, presets::skat(), 12).unwrap();
        assert_eq!(rack.modules().len(), 12);
        assert!(rack.free_units() >= 7.0 - 1e-9);
    }

    #[test]
    fn overstuffed_rack_is_rejected() {
        assert!(Rack::with_modules(47.0, presets::skat(), 15).is_none());
        let mut rack = Rack::with_modules(47.0, presets::skat(), 14).unwrap();
        assert!(rack.push(presets::skat()).is_err());
    }

    #[test]
    fn rack_aggregates_modules() {
        let rack = Rack::with_modules(47.0, presets::skat(), 12).unwrap();
        assert_eq!(rack.compute_fpga_count(), 12 * 96);
        let per_module = presets::skat().peak_performance().ops_per_second();
        assert!(
            (rack.peak_performance().ops_per_second() - per_module * 12.0).abs()
                < per_module * 1e-9
        );
    }
}
