//! **E14** — annual energy accounting across cooling architectures.
//!
//! The paper's abstract claims "high power efficiency" for the designed
//! immersion system. This experiment totals a year of operation for one
//! SKAT-class module under each architecture: IT energy, circulation
//! (fans/pumps), and the chiller/CRAC share, yielding a PUE-style cooling
//! overhead and the annual difference in megawatt-hours.

use rcs_platform::presets;
use rcs_units::{Power, Seconds};

use super::Table;
use crate::{AirCooledModel, ColdPlateModel, ImmersionModel};

/// Annual energy breakdown for one architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyRow {
    /// Architecture label.
    pub architecture: String,
    /// IT (module heat) power, W.
    pub it_w: f64,
    /// Circulation (pump/fan) power, W.
    pub circulation_w: f64,
    /// Chiller/CRAC electrical power, W.
    pub chiller_w: f64,
    /// PUE-style factor: (IT + cooling) / IT.
    pub pue: f64,
    /// Annual total energy, MWh.
    pub annual_mwh: f64,
}

fn row(architecture: &str, it: Power, circulation: Power, chiller: Power) -> EnergyRow {
    let year = Seconds::days(365.25);
    let total = Power::from_watts(it.watts() + circulation.watts() + chiller.watts());
    EnergyRow {
        architecture: architecture.to_owned(),
        it_w: it.watts(),
        circulation_w: circulation.watts(),
        chiller_w: chiller.watts(),
        pue: total.watts() / it.watts(),
        annual_mwh: (total * year).as_kilowatt_hours() / 1e3,
    }
}

/// Computes the annual-energy rows. Air cooling of a SKAT-class module
/// thermally runs away, so its row is the counterfactual at the highest
/// utilization air can actually sustain.
#[must_use]
pub fn rows() -> Vec<EnergyRow> {
    let mut out = Vec::new();

    // Air: at the derated utilization that survives 85 °C.
    let air_model = AirCooledModel::for_module(presets::skat());
    let max_util = air_model.max_utilization_below(rcs_units::Celsius::new(85.0));
    if max_util > 0.0 {
        let derated = air_model
            .with_operating_point(rcs_devices::OperatingPoint::at_utilization(max_util))
            .solve();
        if let Ok(report) = derated {
            out.push(row(
                &format!("air cooling (derated to {:.0} % util)", max_util * 100.0),
                report.total_heat,
                report.circulation_power,
                report.chiller_power,
            ));
        }
    }

    let plates = ColdPlateModel::for_module(presets::skat())
        .solve()
        .expect("cold plates converge");
    out.push(row(
        "closed-loop cold plates",
        plates.total_heat,
        plates.circulation_power,
        plates.chiller_power,
    ));

    let immersion = ImmersionModel::skat().solve().expect("immersion converges");
    out.push(row(
        "open-loop immersion (SKAT, 20 °C water)",
        immersion.total_heat,
        immersion.circulation_power,
        immersion.chiller_power,
    ));

    // Warm-water mode: the immersion bath's thermal headroom (junction
    // ~49 °C at nominal vs the 67.5 °C window) lets it run on 28 °C
    // water, where the chiller's lift — and electricity — shrinks. This
    // is the §2 "hot-water cooling" idea that closed loops cannot use
    // (dew point forces their supply low); immersion can.
    let mut warm_bath = rcs_cooling::ImmersionBath::skat_default();
    warm_bath.chiller = rcs_thermal::Chiller::new(
        rcs_units::Celsius::new(28.0),
        Power::kilowatts(150.0),
        6.5, // COP at the reduced lift
    );
    let warm = ImmersionModel::new(presets::skat(), warm_bath)
        .solve()
        .expect("warm-water immersion converges");
    out.push(row(
        "open-loop immersion (warm water, 28 °C)",
        warm.total_heat,
        warm.circulation_power,
        warm.chiller_power,
    ));

    out
}

/// Renders the experiment tables.
///
/// # Panics
///
/// Panics if a model that must converge fails (would indicate a broken
/// substrate, which the unit tests catch first).
#[must_use]
pub fn run() -> Vec<Table> {
    let data = rows();
    let table = Table::new(
        "E14 — annual energy for one SKAT-class module (8766 h)",
        &[
            "architecture",
            "IT [kW]",
            "circulation [kW]",
            "chiller/CRAC [kW]",
            "PUE-style factor",
            "annual [MWh]",
        ],
        data.iter()
            .map(|r| {
                vec![
                    r.architecture.clone(),
                    format!("{:.2}", r.it_w / 1e3),
                    format!("{:.2}", r.circulation_w / 1e3),
                    format!("{:.2}", r.chiller_w / 1e3),
                    format!("{:.3}", r.pue),
                    format!("{:.1}", r.annual_mwh),
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
    fn energy_ordering_is_honest() {
        // The model's finding, stated precisely: at equal 20 °C water,
        // cold plates edge out immersion on PUE (oil pumping is costly) —
        // the immersion win at matched supply is operational, not
        // energetic. Immersion's energy lever is warm-water operation,
        // which its thermal headroom allows and dew-point-bound closed
        // loops cannot match: the warm-water row beats everything.
        let data = rows();
        let nominal = data
            .iter()
            .find(|r| r.architecture.contains("20 °C water"))
            .unwrap();
        let warm = data
            .iter()
            .find(|r| r.architecture.contains("warm water"))
            .unwrap();
        let plates = data
            .iter()
            .find(|r| r.architecture.contains("cold plates"))
            .unwrap();
        let air = data.iter().find(|r| r.architecture.starts_with("air"));

        if let Some(air) = air {
            assert!(nominal.pue < air.pue, "immersion must beat air");
        }
        assert!(
            warm.pue < plates.pue,
            "warm {} vs plates {}",
            warm.pue,
            plates.pue
        );
        assert!(warm.pue < nominal.pue);
        // all PUE figures are data-center-plausible
        for r in &data {
            assert!(
                r.pue > 1.05 && r.pue < 1.6,
                "{}: PUE {}",
                r.architecture,
                r.pue
            );
        }
    }

    #[test]
    fn warm_water_mode_stays_inside_the_reliability_window() {
        let mut warm_bath = rcs_cooling::ImmersionBath::skat_default();
        warm_bath.chiller =
            rcs_thermal::Chiller::new(rcs_units::Celsius::new(28.0), Power::kilowatts(150.0), 6.5);
        let warm = ImmersionModel::new(presets::skat(), warm_bath)
            .solve()
            .unwrap();
        assert!(warm.junction.degrees() <= 67.5, "Tj = {}", warm.junction);
    }

    #[test]
    fn air_row_is_a_derated_counterfactual() {
        let data = rows();
        let air = data.iter().find(|r| r.architecture.starts_with("air"));
        if let Some(air) = air {
            // it delivers a fraction of the compute for comparable energy
            assert!(air.architecture.contains("derated"));
            let immersion = data
                .iter()
                .find(|r| r.architecture.contains("immersion"))
                .unwrap();
            assert!(air.it_w < immersion.it_w);
        }
    }

    #[test]
    fn annual_energy_is_consistent_with_power() {
        for r in rows() {
            let total_kw = (r.it_w + r.circulation_w + r.chiller_w) / 1e3;
            let expected_mwh = total_kw * rcs_units::HOURS_PER_YEAR / 1e3;
            assert!(
                (r.annual_mwh - expected_mwh).abs() / expected_mwh < 0.01,
                "{r:?}"
            );
        }
    }
}
