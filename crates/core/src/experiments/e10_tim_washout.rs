//! **E10** — thermal-interface washout over immersed service (§2/§3).
//!
//! Paper: a key failing of existing immersion technologies is that "the
//! thermal paste between FPGA chips and heat-sinks is washed out during
//! long-term maintenance"; SRC's designed interface "cannot be
//! deteriorated or washed out by the heat-transfer agent."

use rcs_cooling::ImmersionBath;
use rcs_fluids::Coolant;
use rcs_platform::presets;
use rcs_thermal::{TimAging, TimMaterial};

use super::Table;
use crate::ImmersionModel;

/// One service-age sample.
#[derive(Debug, Clone, PartialEq)]
pub struct WashoutRow {
    /// Immersed service time, months.
    pub months: f64,
    /// Junction with ordinary paste, °C.
    pub paste_junction_c: f64,
    /// Effective paste conductivity fraction remaining.
    pub paste_conductivity_fraction: f64,
    /// Junction with the SRC interface, °C.
    pub src_junction_c: f64,
}

/// Sweeps immersed service time for both interface materials.
#[must_use]
pub fn rows() -> Vec<WashoutRow> {
    [0.0, 3.0, 6.0, 12.0, 18.0, 24.0, 36.0]
        .into_iter()
        .map(|months| {
            let aging = TimAging::immersed_months(months);
            let paste = ImmersionModel::skat()
                .with_tim(TimMaterial::StandardPaste)
                .with_aging(aging)
                .solve()
                .expect("converges");
            let src = ImmersionModel::skat()
                .with_aging(aging)
                .solve()
                .expect("converges");
            WashoutRow {
                months,
                paste_junction_c: paste.junction.degrees(),
                paste_conductivity_fraction: TimMaterial::StandardPaste.conductivity_after(aging)
                    / TimMaterial::StandardPaste.fresh_conductivity_w_per_m_k(),
                src_junction_c: src.junction.degrees(),
            }
        })
        .collect()
}

/// One service-life year: the whole materials bill aging together.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ServiceLifeRow {
    /// Years of immersed service.
    pub years: f64,
    /// Junction with commodity materials (standard paste + MD-4.5 oil), °C.
    pub commodity_junction_c: f64,
    /// Aged MD-4.5 viscosity relative to fresh at 40 °C.
    pub commodity_viscosity_growth: f64,
    /// Junction with the SRC-designed materials (stable TIM + SRC
    /// coolant), °C.
    pub designed_junction_c: f64,
}

/// Sweeps whole-system service life: TIM washout *and* coolant aging
/// together, commodity materials versus the SRC-designed ones — the §2/§3
/// materials-engineering argument in one table.
#[must_use]
pub(crate) fn service_life_rows() -> Vec<ServiceLifeRow> {
    [0.0, 1.0, 2.0, 3.0, 5.0]
        .into_iter()
        .map(|years| {
            let aging = TimAging::immersed_months(years * 12.0);

            let mut commodity_bath = ImmersionBath::skat_default();
            commodity_bath.coolant = Coolant::mineral_oil_md45().aged(years);
            let commodity = ImmersionModel::new(presets::skat(), commodity_bath)
                .with_tim(TimMaterial::StandardPaste)
                .with_aging(aging)
                .solve()
                .expect("converges");

            let mut designed_bath = ImmersionBath::skat_default();
            designed_bath.coolant = Coolant::src_dielectric().aged(years);
            let designed = ImmersionModel::new(presets::skat(), designed_bath)
                .with_aging(aging)
                .solve()
                .expect("converges");

            let t40 = rcs_units::Celsius::new(40.0);
            let viscosity_growth = Coolant::mineral_oil_md45()
                .aged(years)
                .state(t40)
                .viscosity
                .pascal_seconds()
                / Coolant::mineral_oil_md45()
                    .state(t40)
                    .viscosity
                    .pascal_seconds();
            ServiceLifeRow {
                years,
                commodity_junction_c: commodity.junction.degrees(),
                commodity_viscosity_growth: viscosity_growth,
                designed_junction_c: designed.junction.degrees(),
            }
        })
        .collect()
}

/// Renders the experiment tables.
#[must_use]
pub fn run() -> Vec<Table> {
    let data = rows();
    let table = Table::new(
        "E10 — TIM washout in immersed service: SKAT junction vs service months",
        &[
            "months immersed",
            "paste conductivity left",
            "Tj with paste [°C]",
            "Tj with SRC TIM [°C]",
        ],
        data.iter()
            .map(|r| {
                vec![
                    format!("{:.0}", r.months),
                    format!("{:.0} %", r.paste_conductivity_fraction * 100.0),
                    format!("{:.1}", r.paste_junction_c),
                    format!("{:.1}", r.src_junction_c),
                ]
            })
            .collect(),
    );

    let life = Table::new(
        "E10b — whole-system service life: commodity vs SRC-designed materials",
        &[
            "years immersed",
            "Tj, paste + MD-4.5 aged [°C]",
            "MD-4.5 viscosity vs fresh",
            "Tj, SRC TIM + SRC coolant aged [°C]",
        ],
        service_life_rows()
            .iter()
            .map(|r| {
                vec![
                    format!("{:.0}", r.years),
                    format!("{:.1}", r.commodity_junction_c),
                    format!("x{:.2}", r.commodity_viscosity_growth),
                    format!("{:.1}", r.designed_junction_c),
                ]
            })
            .collect(),
    );
    vec![table, life]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paste_degrades_src_does_not() {
        let data = rows();
        let first = &data[0];
        let last = &data[data.len() - 1];
        assert!(last.paste_junction_c - first.paste_junction_c > 2.0);
        assert!((last.src_junction_c - first.src_junction_c).abs() < 0.05);
    }

    #[test]
    fn paste_junction_is_monotone_in_service_time() {
        let data = rows();
        for w in data.windows(2) {
            assert!(w[1].paste_junction_c >= w[0].paste_junction_c - 1e-6);
        }
    }

    #[test]
    fn designed_materials_hold_their_envelope_for_five_years() {
        let life = service_life_rows();
        let first = &life[0];
        let last = life.last().unwrap();
        // commodity stack drifts by several kelvin (washout + thick oil)
        assert!(
            last.commodity_junction_c - first.commodity_junction_c > 2.5,
            "commodity drift {}",
            last.commodity_junction_c - first.commodity_junction_c
        );
        // aged oil is measurably thicker
        assert!(last.commodity_viscosity_growth > 1.1);
        // the designed materials stay essentially flat and inside 55 °C
        assert!(
            last.designed_junction_c - first.designed_junction_c < 1.0,
            "designed drift {}",
            last.designed_junction_c - first.designed_junction_c
        );
        assert!(last.designed_junction_c <= 55.0);
    }

    #[test]
    fn conductivity_fraction_tracks_the_exponential_floor() {
        let data = rows();
        assert!((data[0].paste_conductivity_fraction - 1.0).abs() < 1e-9);
        let last = data.last().unwrap();
        assert!(last.paste_conductivity_fraction > 0.25);
        assert!(last.paste_conductivity_fraction < 0.40);
    }
}
