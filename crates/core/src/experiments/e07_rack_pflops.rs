//! **E7** — the rack-level claim (§5).
//!
//! Paper: "it is now possible to mount not less than 12 new-generation
//! CMs, with a total performance above 1 PFlops, in a single 47U computer
//! rack", with the agent below 30 °C and the FPGAs below 55 °C.

use rcs_devices::OperatingPoint;
use rcs_platform::{presets, ComputeModule, Rack};

use super::Table;
use crate::{ImmersionModel, RackImmersionModel};

/// Rack-level aggregate for one module type.
#[derive(Debug, Clone, PartialEq)]
pub struct RackRow {
    /// Module type mounted.
    pub module: String,
    /// Modules that fit a 47U rack.
    pub modules: usize,
    /// Total compute FPGAs.
    pub fpgas: usize,
    /// Rack peak performance, PFlops.
    pub peak_pflops: f64,
    /// Rack heat at operating mode, kW.
    pub heat_kw: f64,
    /// Hottest junction across the rack (every module identical), °C.
    pub junction_c: f64,
    /// Hot oil temperature, °C.
    pub oil_c: f64,
}

fn rack_of(module: ComputeModule, count: usize) -> RackRow {
    let name = module.name().to_owned();
    let rack = Rack::with_modules(47.0, module.clone(), count).expect("rack fits");
    let report = if module.name() == "SKAT+" {
        ImmersionModel::skat_plus().solve().expect("converges")
    } else {
        ImmersionModel::skat().solve().expect("converges")
    };
    RackRow {
        module: name,
        modules: rack.modules().len(),
        fpgas: rack.compute_fpga_count(),
        peak_pflops: rack.peak_performance().as_petaflops(),
        heat_kw: rack
            .total_heat(OperatingPoint::operating_mode(), report.junction)
            .as_kilowatts(),
        junction_c: report.junction.degrees(),
        oil_c: report.coolant_hot.degrees(),
    }
}

/// Computes the rack rows for SKAT and SKAT+ modules.
#[must_use]
pub fn rows() -> Vec<RackRow> {
    vec![
        rack_of(presets::skat(), 12),
        rack_of(presets::skat_plus(), 12),
    ]
}

/// Shared-loop coupling rows: the rack solved as one system (manifold +
/// facility chiller), per module type.
#[must_use]
pub(crate) fn coupled_rows() -> Vec<(String, f64, f64, bool, f64)> {
    [
        ("SKAT".to_owned(), RackImmersionModel::skat_rack(12)),
        ("SKAT+".to_owned(), RackImmersionModel::skat_plus_rack(12)),
    ]
    .into_iter()
    .map(|(name, model)| {
        let report = model.solve().expect("rack solves");
        (
            name,
            report
                .hottest_junction()
                .expect("rack has modules")
                .degrees(),
            report.junction_spread_k().expect("rack has modules"),
            report.within_chiller_capacity,
            report.total_heat.as_kilowatts(),
        )
    })
    .collect()
}

/// Renders the experiment tables.
#[must_use]
pub fn run() -> Vec<Table> {
    let data = rows();
    let table = Table::new(
        "E7 — 47U rack of 12 immersion modules (paper: >1 PFlops, oil <= 30 °C, FPGA <= 55 °C)",
        &[
            "module",
            "modules",
            "FPGAs",
            "peak [PFlops]",
            "rack heat [kW]",
            "Tj [°C]",
            "oil [°C]",
        ],
        data.iter()
            .map(|r| {
                vec![
                    r.module.clone(),
                    r.modules.to_string(),
                    r.fpgas.to_string(),
                    format!("{:.2}", r.peak_pflops),
                    format!("{:.0}", r.heat_kw),
                    format!("{:.1}", r.junction_c),
                    format!("{:.1}", r.oil_c),
                ]
            })
            .collect(),
    );

    let coupled = Table::new(
        "E7b — the rack as one coupled system (shared manifold + 150 kW facility chiller)",
        &[
            "module",
            "hottest Tj [°C]",
            "module-to-module spread [K]",
            "chiller within capacity",
            "rack heat [kW]",
        ],
        coupled_rows()
            .into_iter()
            .map(|(name, tj, spread, ok, kw)| {
                vec![
                    name,
                    format!("{tj:.1}"),
                    format!("{spread:.2}"),
                    if ok {
                        "yes".into()
                    } else {
                        "NO — supply temperature rises".to_owned()
                    },
                    format!("{kw:.0}"),
                ]
            })
            .collect(),
    );
    vec![table, coupled]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skat_plus_rack_exceeds_a_petaflops() {
        let data = rows();
        assert!(data[1].peak_pflops > 1.0, "{} PFlops", data[1].peak_pflops);
    }

    #[test]
    fn twelve_modules_fit() {
        for r in rows() {
            assert_eq!(r.modules, 12);
            assert_eq!(r.fpgas, 12 * 96);
        }
    }

    #[test]
    fn skat_rack_holds_the_operating_envelope() {
        let skat = &rows()[0];
        assert!(skat.junction_c <= 55.0);
        assert!(skat.oil_c <= 30.0);
    }

    #[test]
    fn rack_heat_is_in_the_hundred_kilowatt_class() {
        let skat = &rows()[0];
        assert!(
            skat.heat_kw > 80.0 && skat.heat_kw < 180.0,
            "{} kW",
            skat.heat_kw
        );
    }
}
