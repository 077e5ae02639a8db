//! **E1/E2** — the §1 air-cooling measurements: Rigel-2 and Taygeta.
//!
//! Paper: Rigel-2 (Virtex-6) at 1255 W overheats +33.1 °C over a 25 °C
//! ambient (58.1 °C); Taygeta (Virtex-7) at 1661 W overheats +47.9 °C
//! (72.9 °C), past the 65…70 °C reliability window.

use rcs_platform::presets;

use super::Table;
use crate::rules::RELIABLE_JUNCTION_LIMIT;
use crate::AirCooledModel;

/// One machine's paper-vs-model comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct AnchorRow {
    /// Module name.
    pub module: String,
    /// Paper-reported module power, W.
    pub paper_power_w: f64,
    /// Model total heat, W.
    pub model_power_w: f64,
    /// Paper-reported maximum FPGA temperature, °C.
    pub paper_junction_c: f64,
    /// Model junction temperature, °C.
    pub model_junction_c: f64,
    /// `true` if the machine stays inside the 65…70 °C reliability window.
    pub within_reliability_window: bool,
}

/// Computes the comparison rows.
#[must_use]
pub fn rows() -> Vec<AnchorRow> {
    let anchors = [(presets::rigel2(), 58.1), (presets::taygeta(), 72.9)];
    anchors
        .into_iter()
        .map(|(module, paper_tj)| {
            let paper_power = module.reported_power().expect("preset has anchor").watts();
            let report = AirCooledModel::for_module(module.clone())
                .solve()
                .expect("air-cooled presets converge");
            AnchorRow {
                module: module.name().to_owned(),
                paper_power_w: paper_power,
                model_power_w: report.total_heat.watts(),
                paper_junction_c: paper_tj,
                model_junction_c: report.junction.degrees(),
                within_reliability_window: report.junction <= RELIABLE_JUNCTION_LIMIT,
            }
        })
        .collect()
}

/// Renders the experiment tables.
#[must_use]
pub fn run() -> Vec<Table> {
    let rows_data = rows();
    let table = Table::new(
        "E1/E2 — air-cooled anchors (Rigel-2, Taygeta) at 25 °C ambient",
        &[
            "module",
            "power paper [W]",
            "power model [W]",
            "Tj paper [°C]",
            "Tj model [°C]",
            "overheat paper [K]",
            "overheat model [K]",
            "within 65–70 °C window",
        ],
        rows_data
            .iter()
            .map(|r| {
                vec![
                    r.module.clone(),
                    format!("{:.0}", r.paper_power_w),
                    format!("{:.0}", r.model_power_w),
                    format!("{:.1}", r.paper_junction_c),
                    format!("{:.1}", r.model_junction_c),
                    format!("{:.1}", r.paper_junction_c - 25.0),
                    format!("{:.1}", r.model_junction_c - 25.0),
                    if r.within_reliability_window {
                        "yes"
                    } else {
                        "NO"
                    }
                    .to_owned(),
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
    fn anchors_reproduce_within_tolerance() {
        for r in rows() {
            assert!(
                (r.model_junction_c - r.paper_junction_c).abs() < 3.0,
                "{}: model {} vs paper {}",
                r.module,
                r.model_junction_c,
                r.paper_junction_c
            );
            assert!(
                (r.model_power_w - r.paper_power_w).abs() / r.paper_power_w < 0.10,
                "{}: model {} W vs paper {} W",
                r.module,
                r.model_power_w,
                r.paper_power_w
            );
        }
    }

    #[test]
    fn taygeta_breaks_the_window_rigel_does_not() {
        let rows = rows();
        assert!(rows[0].within_reliability_window, "Rigel-2");
        assert!(!rows[1].within_reliability_window, "Taygeta");
    }

    #[test]
    fn table_renders() {
        let tables = run();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), 2);
    }
}
