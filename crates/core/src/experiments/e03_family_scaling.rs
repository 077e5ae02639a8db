//! **E3** — family-transition overheat under air cooling (§1).
//!
//! Paper: Virtex-6 → Virtex-7 raised the maximum FPGA temperature by
//! 11…15 °C; the next step to Virtex UltraScale (~100 W per chip) was
//! projected to add another 10…15 °C, pushing chips to their 80…85 °C
//! limit at 85–95 % utilization. The model runs every family on the same
//! calibrated air stack and reports both the converged junction (or
//! thermal runaway) and the utilization each family could actually
//! sustain — the collapse that motivates immersion.

use rcs_devices::FpgaPart;
use rcs_platform::{presets, Ccb, ComputeModule, PowerSupply};
use rcs_units::Celsius;

use super::Table;
use crate::rules::RELIABLE_JUNCTION_LIMIT;
use crate::{AirCooledModel, CoreError};

/// Air-cooled outcome for one FPGA family.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyRow {
    /// Family/part label.
    pub part: String,
    /// Junction at 90 % utilization, or `None` on thermal runaway.
    pub junction_c: Option<f64>,
    /// Delta versus the previous family (when both converge).
    pub delta_vs_previous_k: Option<f64>,
    /// Highest utilization holding the junction at or below 85 °C.
    pub max_util_at_85c: f64,
    /// Highest utilization holding the 65–70 °C reliability window.
    pub max_util_at_window: f64,
}

fn module_for(part: FpgaPart) -> ComputeModule {
    // the pre-SKAT air-cooled form factor: 4 boards of 8 chips in 6U
    ComputeModule::new(
        format!("{}-on-air", part.name()),
        Ccb::new(part, 8, true),
        4,
        PowerSupply::new(rcs_units::Power::kilowatts(4.0), 0.94),
        2,
        6.0,
    )
}

/// Computes the per-family rows.
#[must_use]
pub fn rows() -> Vec<FamilyRow> {
    // reuse the calibrated presets for the two measured machines so the
    // anchors stay exact
    let machines: Vec<(String, ComputeModule)> = vec![
        ("XC6VLX240T (Virtex-6)".into(), presets::rigel2()),
        ("XC7VX485T (Virtex-7)".into(), presets::taygeta()),
        (
            "XCKU095 (UltraScale)".into(),
            module_for(FpgaPart::xcku095()),
        ),
        (
            "VU9P-class (UltraScale+)".into(),
            module_for(FpgaPart::vu9p_class()),
        ),
    ];
    let mut out = Vec::new();
    let mut previous: Option<f64> = None;
    for (label, module) in machines {
        let model = AirCooledModel::for_module(module);
        let junction = match model.solve() {
            Ok(r) => Some(r.junction.degrees()),
            Err(CoreError::NoConvergence { .. }) => None,
            Err(e) => panic!("unexpected failure for {label}: {e}"),
        };
        let delta = match (junction, previous) {
            (Some(now), Some(prev)) => Some(now - prev),
            _ => None,
        };
        previous = junction;
        out.push(FamilyRow {
            part: label,
            junction_c: junction,
            delta_vs_previous_k: delta,
            max_util_at_85c: model.max_utilization_below(Celsius::new(85.0)),
            max_util_at_window: model.max_utilization_below(RELIABLE_JUNCTION_LIMIT),
        });
    }
    out
}

/// Renders the experiment tables.
#[must_use]
pub fn run() -> Vec<Table> {
    let data = rows();
    let table = Table::new(
        "E3 — family scaling on the calibrated air stack (90 % utilization, 25 °C ambient)",
        &[
            "part",
            "Tj model [°C]",
            "Δ vs previous [K]",
            "max util @ 85 °C",
            "max util @ 65–70 °C window",
        ],
        data.iter()
            .map(|r| {
                vec![
                    r.part.clone(),
                    r.junction_c
                        .map_or("thermal runaway".to_owned(), |t| format!("{t:.1}")),
                    r.delta_vs_previous_k
                        .map_or("—".to_owned(), |d| format!("{d:+.1}")),
                    format!("{:.0}%", r.max_util_at_85c * 100.0),
                    format!("{:.0}%", r.max_util_at_window * 100.0),
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
    fn virtex_transition_is_double_digit() {
        let data = rows();
        let delta = data[1]
            .delta_vs_previous_k
            .expect("both Virtex machines converge");
        assert!((8.0..=18.0).contains(&delta), "delta = {delta}");
    }

    #[test]
    fn ultrascale_exceeds_the_projected_limit() {
        // §1 projects 80–85 °C; the model says UltraScale on air is at
        // least that bad (converges above 85 °C or runs away).
        let data = rows();
        if let Some(t) = data[2].junction_c {
            // runaway (None) is an even stronger statement than the claim
            assert!(t > 85.0, "UltraScale Tj = {t}");
        }
    }

    #[test]
    fn sustainable_utilization_collapses() {
        let data = rows();
        // Virtex-6 runs operating mode inside 85 °C; UltraScale+ cannot
        // come close on the same air stack.
        assert!(data[0].max_util_at_85c > 0.9);
        assert!(data[3].max_util_at_85c < data[0].max_util_at_85c);
        assert!(data[3].max_util_at_window < 0.5);
        // monotone collapse across generations
        for w in data.windows(2) {
            assert!(w[1].max_util_at_window <= w[0].max_util_at_window + 1e-9);
        }
    }

    #[test]
    fn table_has_four_families() {
        assert_eq!(run()[0].rows.len(), 4);
    }
}
