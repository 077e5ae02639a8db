//! **E11** — the pin-fin turbulator heat-sink study (§2/§3).
//!
//! Paper: SRC's heat-engineering research produced "a fundamentally new
//! design of a heat-sink with original solder pins which create a local
//! turbulent flow of the heat-transfer agent." This experiment compares a
//! bare package lid, a conventional plate-fin sink and the pin-fin
//! turbulator in the same oil flow, then sweeps approach velocity.

use rcs_fluids::Coolant;
use rcs_thermal::{BarePlate, HeatSink, PinFinSink, PlateFinSink, SinkMaterial};
use rcs_units::{Celsius, Length, Power, Velocity};

use super::Table;

/// Sink comparison at one approach velocity.
#[derive(Debug, Clone, PartialEq)]
pub struct SinkRow {
    /// Sink label.
    pub sink: String,
    /// Sink height above the board, mm (packing constraint).
    pub height_mm: f64,
    /// Sink-to-oil resistance, K/W.
    pub resistance_k_per_w: f64,
    /// Junction overheat above 30 °C oil at 91 W, K.
    pub overheat_at_91w_k: f64,
}

fn candidates() -> Vec<(String, HeatSink)> {
    let footprint = Length::millimeters(42.5);
    // a low plate-fin sink of the same height budget as the pins
    let low_plate = PlateFinSink {
        width: footprint,
        length: footprint,
        fin_height: Length::millimeters(12.0),
        fin_thickness: Length::millimeters(1.0),
        fin_count: 10,
        material: SinkMaterial::Copper,
    };
    vec![
        (
            "bare package lid".into(),
            HeatSink::Bare(BarePlate {
                area: footprint * footprint,
                length: footprint,
            }),
        ),
        (
            "12 mm plate-fin (copper)".into(),
            HeatSink::PlateFin(low_plate),
        ),
        (
            "SRC pin-fin turbulator".into(),
            HeatSink::PinFin(PinFinSink::skat_default()),
        ),
    ]
}

/// Computes the comparison rows at the SKAT bath velocity.
#[must_use]
pub fn rows() -> Vec<SinkRow> {
    let oil = Coolant::src_dielectric().state(Celsius::new(30.0));
    let v = Velocity::from_meters_per_second(0.15);
    candidates()
        .into_iter()
        .map(|(label, sink)| {
            let r = sink.resistance(&oil, v);
            SinkRow {
                sink: label,
                height_mm: sink.height().as_millimeters(),
                resistance_k_per_w: r.kelvin_per_watt(),
                overheat_at_91w_k: (Power::from_watts(91.0) * r).kelvins(),
            }
        })
        .collect()
}

/// Pin-fin resistance versus approach velocity (the design sweep behind
/// §4's "experimentally improve the heat-sink optimal design").
#[must_use]
pub(crate) fn velocity_sweep() -> Vec<(f64, f64)> {
    let oil = Coolant::src_dielectric().state(Celsius::new(30.0));
    let sink = PinFinSink::skat_default();
    [0.05, 0.10, 0.15, 0.25, 0.40, 0.60, 1.00]
        .into_iter()
        .map(|v| {
            let r = sink.resistance(&oil, Velocity::from_meters_per_second(v));
            (v, r.kelvin_per_watt())
        })
        .collect()
}

/// Renders the experiment tables.
#[must_use]
pub fn run() -> Vec<Table> {
    let data = rows();
    let comparison = Table::new(
        "E11 — sink designs in 30 °C oil at 0.15 m/s approach (91 W per FPGA)",
        &[
            "sink",
            "height [mm]",
            "R sink [K/W]",
            "overheat at 91 W [K]",
        ],
        data.iter()
            .map(|r| {
                vec![
                    r.sink.clone(),
                    format!("{:.0}", r.height_mm),
                    format!("{:.3}", r.resistance_k_per_w),
                    format!("{:.1}", r.overheat_at_91w_k),
                ]
            })
            .collect(),
    );

    let sweep = Table::new(
        "E11 — pin-fin turbulator resistance vs approach velocity",
        &["approach [m/s]", "R sink [K/W]"],
        velocity_sweep()
            .into_iter()
            .map(|(v, r)| vec![format!("{v:.2}"), format!("{r:.3}")])
            .collect(),
    );
    vec![comparison, sweep]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_fin_wins_at_equal_height() {
        let data = rows();
        let plate = &data[1];
        let pins = &data[2];
        assert!(pins.resistance_k_per_w < plate.resistance_k_per_w);
        assert_eq!(pins.height_mm, plate.height_mm);
    }

    #[test]
    fn bare_lid_cannot_hold_91_watts() {
        let bare = &rows()[0];
        // 91 W through a bare lid in slow oil: far past any junction limit
        assert!(
            bare.overheat_at_91w_k > 50.0,
            "{} K",
            bare.overheat_at_91w_k
        );
    }

    #[test]
    fn pins_keep_91w_overheat_small() {
        let pins = &rows()[2];
        assert!(
            pins.overheat_at_91w_k < 25.0,
            "{} K",
            pins.overheat_at_91w_k
        );
    }

    #[test]
    fn sweep_is_monotone_decreasing() {
        let sweep = velocity_sweep();
        for w in sweep.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-9, "{sweep:?}");
        }
        // with diminishing returns
        let first_gain = sweep[0].1 - sweep[1].1;
        let last_gain = sweep[sweep.len() - 2].1 - sweep[sweep.len() - 1].1;
        assert!(first_gain > last_gain);
    }
}
