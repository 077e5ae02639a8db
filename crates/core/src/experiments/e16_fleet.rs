//! **E16** — the capstone fleet simulation.
//!
//! Everything the paper argues, compounded over a five-year service life
//! of a 12-module rack: junction temperatures (§3) drive Arrhenius chip
//! wear (§1); material stability (§2/§3) decides how the temperatures
//! drift; coolant topology (§2/§3) decides what every repair costs.
//! The output the owner cares about is the last column: compute actually
//! delivered.

use super::Table;
use crate::{FleetOutcome, FleetSimulation};

/// Modules in the simulated rack.
pub(crate) const MODULES: usize = 12;
/// Service horizon, years.
pub(crate) const YEARS: f64 = 5.0;
/// RNG seed (fixed: the experiment is reproducible).
pub const SEED: u64 = 20180401;

/// Runs the three configurations.
#[must_use]
pub(crate) fn rows() -> Vec<FleetOutcome> {
    FleetSimulation::new(MODULES, YEARS, SEED)
        .run_all()
        .expect("fleet configurations converge")
}

/// Renders the experiment tables.
#[must_use]
pub fn run() -> Vec<Table> {
    let data = rows();
    let table = Table::new(
        format!("E16 — {YEARS:.0}-year fleet simulation, {MODULES}-module rack (seed {SEED})"),
        &[
            "configuration",
            "mean Tj [°C]",
            "Tj at 5 y [°C]",
            "chip failures",
            "cooling events",
            "rack stoppages",
            "availability",
            "delivered [PFlops·y]",
        ],
        data.iter()
            .map(|r| {
                vec![
                    r.config.to_string(),
                    format!("{:.1}", r.mean_junction_c),
                    format!("{:.1}", r.final_junction_c),
                    format!("{:.0}", r.chip_failures),
                    format!("{:.0}", r.cooling_events),
                    format!("{:.0}", r.rack_stoppages),
                    format!("{:.5}", r.availability),
                    format!("{:.3}", r.delivered_pflops_years),
                ]
            })
            .collect(),
    );
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FleetConfig;

    #[test]
    fn designed_configuration_wins_end_to_end() {
        let data = rows();
        let designed = data
            .iter()
            .find(|r| r.config == FleetConfig::ImmersionDesigned)
            .unwrap();
        // delivered compute: designed immersion beats everything. (Cold
        // plates actually run *cooler* — their loss is operational, not
        // thermal, which is exactly the paper's argument.)
        for other in data
            .iter()
            .filter(|r| r.config != FleetConfig::ImmersionDesigned)
        {
            assert!(designed.delivered_pflops_years >= other.delivered_pflops_years);
        }
        let commodity = data
            .iter()
            .find(|r| r.config == FleetConfig::ImmersionCommodity)
            .unwrap();
        assert!(designed.mean_junction_c < commodity.mean_junction_c);
        let plates = data
            .iter()
            .find(|r| r.config == FleetConfig::ColdPlates)
            .unwrap();
        assert!(plates.rack_stoppages > 0.0);
        assert!(plates.availability < designed.availability);
    }

    #[test]
    fn table_renders_three_configurations() {
        assert_eq!(run()[0].rows.len(), 3);
    }
}
