//! **E9 / F3 / F4** — the SKAT+ redesign (§4).
//!
//! Paper: UltraScale+ packages grow from 42.5 mm to 45 mm, so the old CCB
//! no longer fits a 19″ rack; the separate CCB controller — whose
//! functions now cost "only some percent" of one FPGA — is dropped;
//! pumps move into the bath, leaving only the heat exchanger in the
//! heat-exchange section and raising reliability by removing components.

use rcs_cooling::{CoolingArchitecture, ImmersionBath};
use rcs_devices::FpgaPart;
use rcs_platform::Ccb;

use super::Table;
use crate::rules::RELIABLE_JUNCTION_LIMIT;
use crate::ImmersionModel;

/// Logic cells consumed by the CCB controller's functions (access,
/// programming, monitoring) — roughly constant across generations, which
/// is exactly the paper's argument for absorbing them into the field.
pub(crate) const CONTROLLER_FUNCTION_CELLS: u64 = 45_000;

/// Controller-resource fraction for every cataloged part.
#[must_use]
pub fn controller_fraction_rows() -> Vec<(String, f64)> {
    FpgaPart::catalog()
        .into_iter()
        .map(|p| {
            let fraction = CONTROLLER_FUNCTION_CELLS as f64 / p.logic_cells() as f64;
            (p.name().to_owned(), fraction)
        })
        .collect()
}

/// Renders the experiment tables.
#[must_use]
pub fn run() -> Vec<Table> {
    // F4: board-width geometry.
    let configs = [
        (
            "8x KU095 + controller (SKAT)",
            Ccb::new(FpgaPart::xcku095(), 8, true),
        ),
        (
            "8x VU9P + controller",
            Ccb::new(FpgaPart::vu9p_class(), 8, true),
        ),
        (
            "8x VU9P, controller in field (SKAT+)",
            Ccb::new(FpgaPart::vu9p_class(), 8, false),
        ),
    ];
    let geometry = Table::new(
        "F4 — CCB packing vs the 19\" rack (usable width 450 mm)",
        &["board", "packages", "required width [mm]", "fits"],
        configs
            .iter()
            .map(|(label, ccb)| {
                vec![
                    (*label).to_owned(),
                    ccb.package_count().to_string(),
                    format!("{:.1}", ccb.required_width().as_millimeters()),
                    if ccb.fits_standard_rack() {
                        "yes"
                    } else {
                        "NO"
                    }
                    .to_owned(),
                ]
            })
            .collect(),
    );

    // E9: controller-resource shrinkage.
    let controller = Table::new(
        "E9 — CCB-controller functions as a fraction of one FPGA (paper: 'only some percent')",
        &["part", "controller share of logic"],
        controller_fraction_rows()
            .into_iter()
            .map(|(name, f)| vec![name, format!("{:.1} %", f * 100.0)])
            .collect(),
    );

    // F3: component diff SKAT -> SKAT+.
    let skat_bath = ImmersionBath::skat_default();
    let plus_bath = ImmersionBath::skat_plus_default();
    let diff = Table::new(
        "F3 — heat-exchange section, SKAT vs SKAT+ (immersed pumps)",
        &["property", "SKAT", "SKAT+"],
        vec![
            vec![
                "circulation pumps".into(),
                format!("{} (external)", skat_bath.pump_count),
                format!("{} (immersed)", plus_bath.pump_count),
            ],
            vec![
                "pressure-tight connections".into(),
                skat_bath.pressure_tight_connections().to_string(),
                plus_bath.pressure_tight_connections().to_string(),
            ],
            vec![
                "components in heat-exchange section".into(),
                "pump + heat exchanger".into(),
                "heat exchanger only".into(),
            ],
            vec![
                "pump-outage rate [1/year]".into(),
                format!("{:.3}", pump_outage_rate(&skat_bath)),
                format!("{:.4}", pump_outage_rate(&plus_bath)),
            ],
        ],
    );

    // E9: SKAT+ thermal outcome on the upgraded bath.
    let plus = ImmersionModel::skat_plus()
        .solve()
        .expect("SKAT+ converges");
    let skat = ImmersionModel::skat().solve().expect("SKAT converges");
    let thermal = Table::new(
        "E9 — SKAT+ thermal outcome (paper: temperatures 'approach again their critical values')",
        &["quantity", "SKAT", "SKAT+"],
        vec![
            vec![
                "per-FPGA power [W]".into(),
                format!("{:.0}", skat.chip_power.watts()),
                format!("{:.0}", plus.chip_power.watts()),
            ],
            vec![
                "junction [°C]".into(),
                format!("{:.1}", skat.junction.degrees()),
                format!("{:.1}", plus.junction.degrees()),
            ],
            vec![
                "hot oil [°C]".into(),
                format!("{:.1}", skat.coolant_hot.degrees()),
                format!("{:.1}", plus.coolant_hot.degrees()),
            ],
            vec![
                "within 65–70 °C window".into(),
                (skat.junction <= RELIABLE_JUNCTION_LIMIT).to_string(),
                (plus.junction <= RELIABLE_JUNCTION_LIMIT).to_string(),
            ],
        ],
    );

    vec![geometry, controller, diff, thermal]
}

fn pump_outage_rate(bath: &ImmersionBath) -> f64 {
    let arch = CoolingArchitecture::Immersion(bath.clone());
    rcs_cooling::risk::failure_classes(&arch)
        .into_iter()
        .find(|c| c.name.contains("pump outage"))
        .map_or(0.0, |c| c.rate_per_year)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_story_holds() {
        let tables = run();
        let fits: Vec<&str> = tables[0].rows.iter().map(|r| r[3].as_str()).collect();
        assert_eq!(fits, vec!["yes", "NO", "yes"]);
    }

    #[test]
    fn controller_share_is_some_percent_on_modern_parts() {
        for (name, f) in controller_fraction_rows() {
            if name.contains("VU9P") || name.contains("UltraScale-2") {
                assert!(f < 0.02, "{name}: {f}");
            }
        }
        // and it shrinks monotonically with generation
        let fractions: Vec<f64> = controller_fraction_rows()
            .into_iter()
            .map(|(_, f)| f)
            .collect();
        for w in fractions.windows(2) {
            assert!(w[1] < w[0]);
        }
    }

    #[test]
    fn skat_plus_runs_hotter_but_inside_the_window() {
        let plus = ImmersionModel::skat_plus().solve().unwrap();
        let skat = ImmersionModel::skat().solve().unwrap();
        assert!(plus.junction > skat.junction);
        assert!(plus.junction.degrees() <= 67.5);
    }

    #[test]
    fn immersed_pumps_cut_connections_and_outage() {
        let skat = ImmersionBath::skat_default();
        let plus = ImmersionBath::skat_plus_default();
        assert!(plus.pressure_tight_connections() < skat.pressure_tight_connections());
        assert!(pump_outage_rate(&plus) < pump_outage_rate(&skat));
    }
}
