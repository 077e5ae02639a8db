//! **E13** — ablations of the SKAT design choices.
//!
//! Not a paper table: these sweeps isolate the contribution of each §3
//! design decision inside the full coupled model — the coolant chemistry,
//! the chiller setpoint (§2 dismisses "hot-water cooling" as ineffective
//! for closed loops; here is what it costs an immersion bath), and the
//! circulation pump sizing.

use rcs_cooling::ImmersionBath;
use rcs_fluids::Coolant;
use rcs_hydraulics::PumpCurve;
use rcs_platform::presets;
use rcs_thermal::Chiller;
use rcs_units::{Celsius, Power, Pressure, VolumeFlow};

use super::Table;
use crate::ImmersionModel;

/// One coolant's outcome in the full coupled SKAT model.
#[derive(Debug, Clone, PartialEq)]
pub struct CoolantAblationRow {
    /// Coolant name.
    pub coolant: String,
    /// Immersion-grade (dielectric) — water rows are counterfactuals.
    pub immersion_grade: bool,
    /// Circulated flow, L/min.
    pub flow_lpm: f64,
    /// Junction temperature, °C.
    pub junction_c: f64,
    /// Hot-oil (agent) temperature, °C.
    pub agent_c: f64,
    /// Pump electrical power, W.
    pub pump_w: f64,
}

/// Runs the coupled model with each candidate coolant in the SKAT bath.
///
/// The four coupled solves are independent, so the sweep fans out over
/// the worker pool; the deterministic fixed-order collection keeps the
/// row order (and every number) identical to the serial sweep.
#[must_use]
pub fn coolant_rows() -> Vec<CoolantAblationRow> {
    let candidates = vec![
        Coolant::src_dielectric(),
        Coolant::mineral_oil_md45(),
        Coolant::water(), // counterfactual: perfect coolant, fatal chemistry
        Coolant::glycol30(),
    ];
    rcs_parallel::par_map_indexed(candidates, rcs_parallel::thread_count(), |_, coolant| {
        let mut bath = ImmersionBath::skat_default();
        let name = coolant.name().to_owned();
        let grade = coolant.is_immersion_grade();
        bath.coolant = coolant;
        let report = ImmersionModel::new(presets::skat(), bath)
            .solve()
            .expect("coupled solve converges for all coolants");
        CoolantAblationRow {
            coolant: name,
            immersion_grade: grade,
            flow_lpm: report.coolant_flow.as_liters_per_minute(),
            junction_c: report.junction.degrees(),
            agent_c: report.coolant_hot.degrees(),
            pump_w: report.circulation_power.watts(),
        }
    })
}

/// Chiller-setpoint sweep: junction and chiller electrical power versus
/// supply-water temperature (the warm-water-cooling trade).
#[must_use]
pub fn setpoint_rows() -> Vec<(f64, f64, f64, f64)> {
    rcs_parallel::par_map_indexed(
        vec![10.0, 14.0, 18.0, 20.0, 24.0, 28.0, 32.0],
        rcs_parallel::thread_count(),
        |_, setpoint| {
            let mut bath = ImmersionBath::skat_default();
            // COP improves as the lift shrinks: ~0.25/K around 4.5 at 20 °C
            let cop = f64::max(4.5 + 0.25 * (setpoint - 20.0), 1.5);
            bath.chiller = Chiller::new(Celsius::new(setpoint), Power::kilowatts(150.0), cop);
            let report = ImmersionModel::new(presets::skat(), bath)
                .solve()
                .expect("converges");
            (
                setpoint,
                report.junction.degrees(),
                report.coolant_hot.degrees(),
                report.chiller_power.watts(),
            )
        },
    )
}

/// Pump-sizing sweep: junction temperature and pump power versus pump
/// shutoff head (flow follows the curve intersection).
#[must_use]
pub fn pump_rows() -> Vec<(f64, f64, f64, f64)> {
    rcs_parallel::par_map_indexed(
        vec![30.0, 50.0, 80.0, 120.0, 160.0],
        rcs_parallel::thread_count(),
        |_, shutoff_kpa| {
            let mut bath = ImmersionBath::skat_default();
            bath.pump = PumpCurve::new(
                Pressure::kilopascals(shutoff_kpa),
                VolumeFlow::liters_per_minute(900.0),
            );
            let report = ImmersionModel::new(presets::skat(), bath)
                .solve()
                .expect("converges");
            (
                shutoff_kpa,
                report.coolant_flow.as_liters_per_minute(),
                report.junction.degrees(),
                report.circulation_power.watts(),
            )
        },
    )
}

/// Renders the ablation tables.
#[must_use]
pub fn run() -> Vec<Table> {
    let coolants = Table::new(
        "E13a — coolant ablation in the coupled SKAT model",
        &[
            "coolant",
            "immersion grade",
            "flow [L/min]",
            "Tj [°C]",
            "agent [°C]",
            "pump [W]",
        ],
        coolant_rows()
            .iter()
            .map(|r| {
                vec![
                    r.coolant.clone(),
                    if r.immersion_grade {
                        "yes"
                    } else {
                        "NO (counterfactual)"
                    }
                    .to_owned(),
                    format!("{:.0}", r.flow_lpm),
                    format!("{:.1}", r.junction_c),
                    format!("{:.1}", r.agent_c),
                    format!("{:.0}", r.pump_w),
                ]
            })
            .collect(),
    );

    let setpoints = Table::new(
        "E13b — chiller setpoint sweep (warm-water trade: junction vs chiller energy)",
        &["supply [°C]", "Tj [°C]", "agent [°C]", "chiller [W]"],
        setpoint_rows()
            .into_iter()
            .map(|(s, tj, oil, w)| {
                vec![
                    format!("{s:.0}"),
                    format!("{tj:.1}"),
                    format!("{oil:.1}"),
                    format!("{w:.0}"),
                ]
            })
            .collect(),
    );

    let pumps = Table::new(
        "E13c — circulation pump sizing (shutoff head vs junction and pump power)",
        &["shutoff [kPa]", "flow [L/min]", "Tj [°C]", "pump [W]"],
        pump_rows()
            .into_iter()
            .map(|(p, q, tj, w)| {
                vec![
                    format!("{p:.0}"),
                    format!("{q:.0}"),
                    format!("{tj:.1}"),
                    format!("{w:.0}"),
                ]
            })
            .collect(),
    );

    vec![coolants, setpoints, pumps]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn water_would_be_the_best_coolant_if_it_were_legal() {
        // The §2 tension in one table: water out-cools every oil, but it
        // is not immersion grade — chemistry, not heat transfer, drives
        // the coolant design.
        let rows = coolant_rows();
        let water = rows.iter().find(|r| r.coolant == "water").unwrap();
        let src = rows.iter().find(|r| r.coolant.contains("SRC")).unwrap();
        assert!(water.junction_c < src.junction_c);
        assert!(!water.immersion_grade);
        assert!(src.immersion_grade);
    }

    #[test]
    fn src_dielectric_beats_commodity_oil_in_system() {
        let rows = coolant_rows();
        let src = rows.iter().find(|r| r.coolant.contains("SRC")).unwrap();
        let md = rows.iter().find(|r| r.coolant.contains("MD-4.5")).unwrap();
        assert!(src.junction_c < md.junction_c);
    }

    #[test]
    fn setpoint_trade_is_monotone_both_ways() {
        let rows = setpoint_rows();
        for w in rows.windows(2) {
            // warmer water -> hotter junction but cheaper chilling
            assert!(w[1].1 >= w[0].1);
            assert!(w[1].3 <= w[0].3 + 1.0);
        }
        // a 32 °C supply still keeps the junction inside the reliability
        // window: the immersion design is robust to warm-water operation
        let hottest = rows.last().unwrap();
        assert!(hottest.1 < 67.5, "Tj at 32 °C supply: {}", hottest.1);
    }

    #[test]
    fn bigger_pump_cools_less_and_less() {
        let rows = pump_rows();
        for w in rows.windows(2) {
            assert!(w[1].1 > w[0].1); // more head -> more flow
            assert!(w[1].2 <= w[0].2 + 1e-9); // -> cooler junction
            assert!(w[1].3 > w[0].3); // -> more pump power
        }
        // diminishing thermal returns: first step buys more kelvin than last
        let first_gain = rows[0].2 - rows[1].2;
        let last_gain = rows[rows.len() - 2].2 - rows[rows.len() - 1].2;
        assert!(first_gain > last_gain);
    }
}
