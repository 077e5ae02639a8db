//! **E15** — serviceability of coolant topologies (§2's IMMERS critique).
//!
//! Paper, on IMMERS-style centralized immersion: "complex maintenance
//! stoppages are necessary to remove separate components and devices …
//! a complex system for the control of cooling-liquid circulation, which
//! causes periodic failures." The SKAT answer is §3's "self-contained
//! circulation of the cooling liquid" per module. This experiment
//! quantifies the difference over a 12-module rack-year.

use rcs_cooling::maintenance::{summarize, PlumbingTopology, ServiceSummary};

use super::Table;

/// Rack size used for the comparison.
pub(crate) const MODULES: usize = 12;

/// Computes the per-topology summaries.
#[must_use]
pub(crate) fn rows() -> Vec<ServiceSummary> {
    vec![
        summarize(PlumbingTopology::SelfContainedModules, MODULES),
        summarize(PlumbingTopology::ColdPlateLoop, MODULES),
        summarize(PlumbingTopology::CentralizedImmersion, MODULES),
    ]
}

/// Renders the experiment tables.
#[must_use]
pub fn run() -> Vec<Table> {
    let data = rows();
    let table = Table::new(
        format!("E15 — serviceability of a {MODULES}-module rack, per year"),
        &[
            "coolant topology",
            "whole-rack stoppages",
            "module-only services",
            "lost module-hours",
        ],
        data.iter()
            .map(|s| {
                vec![
                    s.topology.to_string(),
                    format!("{:.1}", s.rack_stoppages_per_year),
                    format!("{:.1}", s.module_services_per_year),
                    format!("{:.0}", s.lost_module_hours_per_year),
                ]
            })
            .collect(),
    );
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skat_topology_wins_and_immers_loses() {
        let data = rows();
        let skat = &data[0];
        let immers = &data[2];
        assert_eq!(skat.rack_stoppages_per_year, 0.0);
        assert!(immers.rack_stoppages_per_year > 10.0);
        assert!(immers.lost_module_hours_per_year > 10.0 * skat.lost_module_hours_per_year);
    }

    #[test]
    fn table_renders_three_topologies() {
        let tables = run();
        assert_eq!(tables[0].rows.len(), 3);
    }
}
