//! Plate heat exchangers via the effectiveness-NTU method.
//!
//! The paper's heat-exchange section couples the module-internal oil loop
//! to the external chilled-water loop through "a plate heat exchanger in
//! which the first and the second loops are separated" (§3). SRC's research
//! found "the most suitable design of the heat exchanger is a plate-type
//! one designed for cooling mineral oil in hydraulic systems of industrial
//! equipment" (§2).

use rcs_units::ThermalCapacityRate;

/// Flow arrangement of the exchanger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowArrangement {
    /// Counterflow: the highest effectiveness for a given NTU.
    Counterflow,
    /// Parallel flow: both streams enter on the same side.
    ParallelFlow,
}

/// A plate heat exchanger characterized by its overall conductance UA.
///
/// # Examples
///
/// Oil at 35 °C rejecting heat to 20 °C chiller water:
///
/// ```
/// use rcs_thermal::{FlowArrangement, PlateHeatExchanger};
/// use rcs_units::ThermalCapacityRate;
///
/// let hx = PlateHeatExchanger::new(
///     ThermalCapacityRate::new(2500.0), FlowArrangement::Counterflow);
/// // 3000 W/K of oil against 4000 W/K of water
/// let eps = hx.effectiveness(ThermalCapacityRate::new(3000.0), ThermalCapacityRate::new(4000.0));
/// assert!(eps > 0.0 && eps < 1.0);
/// // duty = ε · C_min · (hot in − cold in)
/// let duty = eps * 3000.0 * (35.0 - 20.0);
/// assert!(duty > 0.0 && duty < 3000.0 * 15.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlateHeatExchanger {
    ua: ThermalCapacityRate,
    arrangement: FlowArrangement,
}

impl PlateHeatExchanger {
    /// Creates an exchanger from its overall conductance and arrangement.
    ///
    /// # Panics
    ///
    /// Panics if `ua` is not positive.
    #[must_use]
    pub fn new(ua: ThermalCapacityRate, arrangement: FlowArrangement) -> Self {
        assert!(ua.watts_per_kelvin() > 0.0, "UA must be positive");
        Self { ua, arrangement }
    }

    /// Overall conductance.
    #[must_use]
    pub fn ua(&self) -> ThermalCapacityRate {
        self.ua
    }

    /// A fouled copy of this exchanger: the given fouling resistance
    /// (K/W) is added in series with the clean surface, so
    /// `UA' = 1 / (1/UA + R_f)`.
    ///
    /// This is the fault-injection hook for fouling drift — scale
    /// deposits on the water side and varnish on the oil side grow a
    /// resistance on top of the clean plate stack. Negative resistances
    /// are clamped to zero (an exchanger cannot be cleaner than clean).
    #[must_use]
    pub fn with_fouling(&self, fouling_resistance_k_per_w: f64) -> Self {
        let r_clean = 1.0 / self.ua.watts_per_kelvin();
        Self {
            ua: ThermalCapacityRate::new(1.0 / (r_clean + fouling_resistance_k_per_w.max(0.0))),
            arrangement: self.arrangement,
        }
    }

    /// Effectiveness for the given capacity rates (ε-NTU method).
    #[must_use]
    pub fn effectiveness(&self, hot: ThermalCapacityRate, cold: ThermalCapacityRate) -> f64 {
        let c_min = hot.watts_per_kelvin().min(cold.watts_per_kelvin());
        let c_max = hot.watts_per_kelvin().max(cold.watts_per_kelvin());
        if c_min <= 0.0 {
            return 0.0;
        }
        let cr = c_min / c_max;
        let ntu = self.ua.watts_per_kelvin() / c_min;
        match self.arrangement {
            FlowArrangement::Counterflow => {
                if (cr - 1.0).abs() < 1e-9 {
                    ntu / (1.0 + ntu)
                } else {
                    let e = (-ntu * (1.0 - cr)).exp();
                    (1.0 - e) / (1.0 - cr * e)
                }
            }
            FlowArrangement::ParallelFlow => (1.0 - (-ntu * (1.0 + cr)).exp()) / (1.0 + cr),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcs_units::{Celsius, Power, TempDelta};

    // The ε-NTU outlet states and the LMTD are test references: the
    // production callers need only `effectiveness`.

    /// Outcome of a heat-exchanger solve.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct HxOutcome {
        /// Hot-side outlet temperature.
        hot_out: Celsius,
        /// Cold-side outlet temperature.
        cold_out: Celsius,
        /// Heat duty transferred from hot to cold.
        duty: Power,
        /// Achieved effectiveness in `[0, 1]`.
        effectiveness: f64,
    }

    impl PlateHeatExchanger {
        /// Solves outlet temperatures and duty for the given inlets.
        fn outlet_temperatures(
            &self,
            hot_in: Celsius,
            hot_rate: ThermalCapacityRate,
            cold_in: Celsius,
            cold_rate: ThermalCapacityRate,
        ) -> HxOutcome {
            let eps = self.effectiveness(hot_rate, cold_rate);
            let c_min = ThermalCapacityRate::new(
                hot_rate
                    .watts_per_kelvin()
                    .min(cold_rate.watts_per_kelvin()),
            );
            let q_max = c_min * (hot_in - cold_in);
            let duty = Power::from_watts(q_max.watts() * eps);
            HxOutcome {
                hot_out: hot_in - duty / hot_rate,
                cold_out: cold_in + duty / cold_rate,
                duty,
                effectiveness: eps,
            }
        }
    }

    /// Log-mean temperature difference for the given terminal temperatures.
    ///
    /// Used as a cross-check on the ε-NTU solution: `duty ≈ UA · LMTD`.
    /// Returns zero if either temperature difference is non-positive (the
    /// exchanger is pinched).
    fn lmtd(
        hot_in: Celsius,
        hot_out: Celsius,
        cold_in: Celsius,
        cold_out: Celsius,
        arrangement: FlowArrangement,
    ) -> TempDelta {
        let (dt1, dt2) = match arrangement {
            FlowArrangement::Counterflow => {
                ((hot_in - cold_out).kelvins(), (hot_out - cold_in).kelvins())
            }
            FlowArrangement::ParallelFlow => {
                ((hot_in - cold_in).kelvins(), (hot_out - cold_out).kelvins())
            }
        };
        if dt1 <= 0.0 || dt2 <= 0.0 {
            return TempDelta::from_kelvins(0.0);
        }
        if (dt1 - dt2).abs() < 1e-12 {
            return TempDelta::from_kelvins(dt1);
        }
        TempDelta::from_kelvins((dt1 - dt2) / (dt1 / dt2).ln())
    }

    fn hx(ua: f64) -> PlateHeatExchanger {
        PlateHeatExchanger::new(ThermalCapacityRate::new(ua), FlowArrangement::Counterflow)
    }

    #[test]
    fn effectiveness_limits() {
        // NTU -> 0: eps -> 0. NTU -> inf (counterflow): eps -> 1.
        let small = hx(1e-6).effectiveness(
            ThermalCapacityRate::new(1000.0),
            ThermalCapacityRate::new(2000.0),
        );
        let large = hx(1e9).effectiveness(
            ThermalCapacityRate::new(1000.0),
            ThermalCapacityRate::new(2000.0),
        );
        assert!(small < 1e-6);
        assert!((large - 1.0).abs() < 1e-6);
    }

    #[test]
    fn balanced_counterflow_formula() {
        // Cr = 1: eps = NTU/(1+NTU); UA = C -> NTU = 1 -> eps = 0.5.
        let eps = hx(1000.0).effectiveness(
            ThermalCapacityRate::new(1000.0),
            ThermalCapacityRate::new(1000.0),
        );
        assert!((eps - 0.5).abs() < 1e-9);
    }

    #[test]
    fn parallel_flow_never_beats_counterflow() {
        for ua in [100.0, 1000.0, 5000.0] {
            let c = hx(ua);
            let p = PlateHeatExchanger::new(
                ThermalCapacityRate::new(ua),
                FlowArrangement::ParallelFlow,
            );
            let hot = ThermalCapacityRate::new(1500.0);
            let cold = ThermalCapacityRate::new(2500.0);
            assert!(p.effectiveness(hot, cold) <= c.effectiveness(hot, cold) + 1e-12);
        }
    }

    #[test]
    fn energy_balance_holds() {
        let out = hx(2500.0).outlet_temperatures(
            Celsius::new(35.0),
            ThermalCapacityRate::new(3000.0),
            Celsius::new(20.0),
            ThermalCapacityRate::new(4000.0),
        );
        let hot_loss = (Celsius::new(35.0) - out.hot_out).kelvins() * 3000.0;
        let cold_gain = (out.cold_out - Celsius::new(20.0)).kelvins() * 4000.0;
        assert!((hot_loss - out.duty.watts()).abs() < 1e-6);
        assert!((cold_gain - out.duty.watts()).abs() < 1e-6);
    }

    #[test]
    fn lmtd_cross_checks_entu() {
        let exchanger = hx(2500.0);
        let out = exchanger.outlet_temperatures(
            Celsius::new(35.0),
            ThermalCapacityRate::new(3000.0),
            Celsius::new(20.0),
            ThermalCapacityRate::new(4000.0),
        );
        let dt = lmtd(
            Celsius::new(35.0),
            out.hot_out,
            Celsius::new(20.0),
            out.cold_out,
            FlowArrangement::Counterflow,
        );
        let duty_lmtd = exchanger.ua().watts_per_kelvin() * dt.kelvins();
        assert!(
            (duty_lmtd - out.duty.watts()).abs() / out.duty.watts() < 1e-3,
            "LMTD duty {duty_lmtd}, eNTU duty {}",
            out.duty.watts()
        );
    }

    #[test]
    fn no_transfer_at_equal_inlets() {
        let out = hx(2500.0).outlet_temperatures(
            Celsius::new(25.0),
            ThermalCapacityRate::new(3000.0),
            Celsius::new(25.0),
            ThermalCapacityRate::new(4000.0),
        );
        assert!(out.duty.watts().abs() < 1e-9);
    }

    #[test]
    fn fouling_adds_series_resistance() {
        let clean = hx(2000.0);
        // R_f equal to the clean resistance halves the conductance
        let fouled = clean.with_fouling(1.0 / 2000.0);
        assert!((fouled.ua().watts_per_kelvin() - 1000.0).abs() < 1e-9);
        // zero fouling is the identity; negative fouling clamps to clean
        assert_eq!(clean.with_fouling(0.0), clean);
        assert_eq!(clean.with_fouling(-1.0), clean);
        // effectiveness strictly degrades
        let hot = ThermalCapacityRate::new(1500.0);
        let cold = ThermalCapacityRate::new(2500.0);
        assert!(fouled.effectiveness(hot, cold) < clean.effectiveness(hot, cold));
    }

    #[test]
    fn lmtd_equal_deltas_degenerate_case() {
        let dt = lmtd(
            Celsius::new(40.0),
            Celsius::new(30.0),
            Celsius::new(20.0),
            Celsius::new(30.0),
            FlowArrangement::Counterflow,
        );
        assert!((dt.kelvins() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn pinched_exchanger_reports_zero_lmtd() {
        let dt = lmtd(
            Celsius::new(30.0),
            Celsius::new(20.0),
            Celsius::new(20.0),
            Celsius::new(35.0),
            FlowArrangement::Counterflow,
        );
        assert_eq!(dt.kelvins(), 0.0);
    }
}
