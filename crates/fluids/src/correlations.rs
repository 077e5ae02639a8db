//! Engineering convection correlations.
//!
//! These are the standard correlations a thermal engineer sizes a cooling
//! system with: internal duct flow (laminar constant-Nu, Gnielinski),
//! external flat plates and Zukauskas staggered pin/tube
//! banks (the paper's "solder pin" turbulator heat sink). All functions
//! are pure and deterministic.
//!
//! Correlations are stated in terms of dimensionless groups and converted to
//! typed [`HeatTransferCoeff`] values by the `htc_*` helpers.

use rcs_units::{HeatTransferCoeff, Length, Velocity};

use crate::dimensionless::{Nusselt, Prandtl, Reynolds};
use crate::state::FluidState;

/// Darcy friction factor for smooth ducts.
///
/// Laminar (`Re < 2300`): `f = 64/Re`. Turbulent: Petukhov's explicit
/// correlation `f = (0.790 ln Re − 1.64)^−2`, valid to `Re ≈ 5×10^6`.
/// The transition region is interpolated linearly in `Re`.
///
/// # Examples
///
/// ```
/// use rcs_fluids::{correlations, Reynolds};
/// let f = correlations::friction_factor_smooth(Reynolds::new(10_000.0));
/// assert!((f - 0.0316).abs() < 0.002);
/// ```
#[must_use]
pub fn friction_factor_smooth(re: Reynolds) -> f64 {
    let re = re.value().max(1.0);
    let laminar = |re: f64| 64.0 / re;
    let turbulent = |re: f64| (0.790 * re.ln() - 1.64).powi(-2);
    if re < 2300.0 {
        laminar(re)
    } else if re > 4000.0 {
        turbulent(re)
    } else {
        let w = (re - 2300.0) / 1700.0;
        laminar(2300.0) * (1.0 - w) + turbulent(4000.0) * w
    }
}

/// Nusselt number for thermally developed laminar duct flow with uniform
/// heat flux: `Nu = 4.36`.
#[must_use]
pub(crate) fn nu_laminar_duct() -> Nusselt {
    Nusselt::new(4.36)
}

/// Gnielinski correlation for transitional/turbulent duct flow,
/// `3000 < Re < 5×10^6`, `0.5 < Pr < 2000`.
///
/// More accurate than Dittus-Boelter in the transition region the paper's
/// low-profile immersion heat sinks actually operate in.
#[must_use]
pub fn nu_gnielinski(re: Reynolds, pr: Prandtl) -> Nusselt {
    let f = friction_factor_smooth(re);
    let re_v = re.value();
    let pr_v = pr.value();
    let nu = (f / 8.0) * (re_v - 1000.0) * pr_v
        / (1.0 + 12.7 * (f / 8.0).sqrt() * (pr_v.powf(2.0 / 3.0) - 1.0));
    Nusselt::new(nu.max(nu_laminar_duct().value()))
}

/// Average Nusselt number for thermally developing laminar duct flow
/// (Hausen's Graetz-number correlation):
/// `Nu = 3.66 + 0.0668·Gz / (1 + 0.04·Gz^{2/3})` with
/// `Gz = (D/L)·Re·Pr`.
///
/// This is what makes short, fin-channel heat sinks respond to airflow in
/// the laminar regime — fully developed laminar flow would not.
#[must_use]
pub(crate) fn nu_laminar_developing(
    re: Reynolds,
    pr: Prandtl,
    diameter_over_length: f64,
) -> Nusselt {
    let gz = (diameter_over_length.max(0.0) * re.value() * pr.value()).max(0.0);
    Nusselt::new(3.66 + 0.0668 * gz / (1.0 + 0.04 * gz.powf(2.0 / 3.0)))
}

/// Duct-flow Nusselt number with entrance effects: developing-laminar
/// below `Re = 2300`, Gnielinski above `Re = 4000`, blended between.
#[must_use]
pub(crate) fn nu_duct_developing(re: Reynolds, pr: Prandtl, diameter_over_length: f64) -> Nusselt {
    if re.value() < 2300.0 {
        nu_laminar_developing(re, pr, diameter_over_length)
    } else if re.value() > 4000.0 {
        nu_gnielinski(re, pr)
    } else {
        let w = (re.value() - 2300.0) / 1700.0;
        let lo = nu_laminar_developing(Reynolds::new(2300.0), pr, diameter_over_length).value();
        let hi = nu_gnielinski(Reynolds::new(4000.0), pr).value();
        Nusselt::new(lo * (1.0 - w) + hi * w)
    }
}

/// Heat-transfer coefficient for developing flow in a duct of hydraulic
/// diameter `d_h` and streamwise length `length`.
#[must_use]
pub fn htc_duct_developing(
    state: &FluidState,
    velocity: Velocity,
    hydraulic_diameter: Length,
    length: Length,
) -> HeatTransferCoeff {
    let re = Reynolds::from_flow(state, velocity, hydraulic_diameter);
    let d_over_l = hydraulic_diameter.meters() / length.meters().max(1e-9);
    nu_duct_developing(re, state.prandtl(), d_over_l).to_htc(state.conductivity, hydraulic_diameter)
}

/// Duct-flow Nusselt number across all regimes: laminar constant-Nu below
/// `Re = 2300`, Gnielinski above `Re = 4000`, linear blend in between.
///
/// # Examples
///
/// ```
/// use rcs_fluids::{correlations, Prandtl, Reynolds};
/// let lam = correlations::nu_duct(Reynolds::new(1000.0), Prandtl::new(6.0));
/// let tur = correlations::nu_duct(Reynolds::new(20_000.0), Prandtl::new(6.0));
/// assert!(tur.value() > 10.0 * lam.value());
/// ```
#[must_use]
pub fn nu_duct(re: Reynolds, pr: Prandtl) -> Nusselt {
    if re.value() < 2300.0 {
        nu_laminar_duct()
    } else if re.value() > 4000.0 {
        nu_gnielinski(re, pr)
    } else {
        let w = (re.value() - 2300.0) / 1700.0;
        let lo = nu_laminar_duct().value();
        let hi = nu_gnielinski(Reynolds::new(4000.0), pr).value();
        Nusselt::new(lo * (1.0 - w) + hi * w)
    }
}

/// Average Nusselt number over an external flat plate of length `L`:
/// laminar `0.664 Re^0.5 Pr^1/3` below the transition Reynolds number
/// `5×10^5`, mixed `(0.037 Re^0.8 − 871) Pr^1/3` above it.
#[must_use]
pub(crate) fn nu_flat_plate(re: Reynolds, pr: Prandtl) -> Nusselt {
    let re_v = re.value();
    let pr3 = pr.value().powf(1.0 / 3.0);
    if re_v < 5.0e5 {
        Nusselt::new(0.664 * re_v.sqrt() * pr3)
    } else {
        Nusselt::new((0.037 * re_v.powf(0.8) - 871.0) * pr3)
    }
}

/// Zukauskas correlation for a **staggered** pin/tube bank — the model for
/// the paper's pin-fin turbulator heat sink, whose solder pins "create a
/// local turbulent flow of the heat-transfer agent".
///
/// `re` is based on the maximum inter-pin velocity and pin diameter;
/// `transverse_to_longitudinal` is the pitch ratio `S_t/S_l` (only used in
/// the high-Re branch). The surface-to-bulk Prandtl correction is omitted
/// (≈1 for the moderate film temperature differences of electronics
/// cooling).
///
/// # Examples
///
/// ```
/// use rcs_fluids::{correlations, Prandtl, Reynolds};
/// let nu = correlations::nu_pin_bank_staggered(
///     Reynolds::new(2000.0), Prandtl::new(50.0), 1.25);
/// assert!(nu.value() > 50.0);
/// ```
#[must_use]
pub fn nu_pin_bank_staggered(
    re: Reynolds,
    pr: Prandtl,
    transverse_to_longitudinal: f64,
) -> Nusselt {
    let re_v = re.value().max(1.0);
    let pr_v = pr.value();
    let nu = if re_v < 100.0 {
        0.90 * re_v.powf(0.40) * pr_v.powf(0.36)
    } else if re_v < 1000.0 {
        0.51 * re_v.powf(0.50) * pr_v.powf(0.37)
    } else if re_v < 2.0e5 {
        0.35 * transverse_to_longitudinal.powf(0.2) * re_v.powf(0.60) * pr_v.powf(0.36)
    } else {
        0.022 * re_v.powf(0.84) * pr_v.powf(0.36)
    };
    Nusselt::new(nu)
}

/// Row-count correction for banks with fewer than 20 rows (staggered
/// arrangement, Zukauskas `C_2` factor).
#[must_use]
pub fn pin_bank_row_correction(rows: usize) -> f64 {
    match rows {
        0 | 1 => 0.70,
        2 => 0.80,
        3 => 0.86,
        4 => 0.89,
        5..=6 => 0.92,
        7..=9 => 0.95,
        10..=12 => 0.97,
        13..=15 => 0.98,
        16..=19 => 0.99,
        _ => 1.0,
    }
}

/// Heat-transfer coefficient for flow in a duct of hydraulic diameter `d_h`.
#[must_use]
pub fn htc_duct(
    state: &FluidState,
    velocity: Velocity,
    hydraulic_diameter: Length,
) -> HeatTransferCoeff {
    let re = Reynolds::from_flow(state, velocity, hydraulic_diameter);
    nu_duct(re, state.prandtl()).to_htc(state.conductivity, hydraulic_diameter)
}

/// Heat-transfer coefficient for a staggered pin bank with `rows` rows in
/// the flow direction, based on the maximum inter-pin velocity.
#[must_use]
pub fn htc_pin_bank(
    state: &FluidState,
    max_velocity: Velocity,
    pin_diameter: Length,
    rows: usize,
) -> HeatTransferCoeff {
    let re = Reynolds::from_flow(state, max_velocity, pin_diameter);
    let nu = nu_pin_bank_staggered(re, state.prandtl(), 1.25);
    let corrected = Nusselt::new(nu.value() * pin_bank_row_correction(rows));
    corrected.to_htc(state.conductivity, pin_diameter)
}

/// Average heat-transfer coefficient over an external flat plate of length
/// `length` in a free stream of the given velocity.
#[must_use]
pub fn htc_flat_plate(state: &FluidState, velocity: Velocity, length: Length) -> HeatTransferCoeff {
    let re = Reynolds::from_flow(state, velocity, length);
    nu_flat_plate(re, state.prandtl()).to_htc(state.conductivity, length)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coolant;
    use rcs_units::Celsius;

    /// Dittus-Boelter correlation for fully turbulent duct flow,
    /// `Nu = 0.023 Re^0.8 Pr^0.4` (fluid being heated), the textbook
    /// reference the Gnielinski correlation is checked against.
    ///
    /// Valid for `Re > 10^4`, `0.6 < Pr < 160`.
    fn nu_dittus_boelter(re: Reynolds, pr: Prandtl) -> Nusselt {
        Nusselt::new(0.023 * re.value().powf(0.8) * pr.value().powf(0.4))
    }

    #[test]
    fn friction_factor_regimes() {
        assert!((friction_factor_smooth(Reynolds::new(1000.0)) - 0.064).abs() < 1e-12);
        let f = friction_factor_smooth(Reynolds::new(1e4));
        assert!((f - 0.0316).abs() < 0.002, "f = {f}");
        // continuity across the transition band
        let a = friction_factor_smooth(Reynolds::new(2299.0));
        let b = friction_factor_smooth(Reynolds::new(2301.0));
        assert!((a - b).abs() < 1e-3);
    }

    #[test]
    fn gnielinski_matches_dittus_boelter_at_re_1e4() {
        let re = Reynolds::new(1e4);
        let pr = Prandtl::new(6.0);
        let g = nu_gnielinski(re, pr).value();
        let db = nu_dittus_boelter(re, pr).value();
        assert!((g - 75.0).abs() < 5.0, "Gnielinski Nu = {g}");
        assert!((g - db).abs() / db < 0.10);
    }

    #[test]
    fn duct_nu_is_monotone_in_re() {
        let pr = Prandtl::new(6.0);
        let mut last = 0.0;
        for re in [100.0, 2300.0, 3000.0, 4000.0, 1e4, 1e5] {
            let nu = nu_duct(Reynolds::new(re), pr).value();
            assert!(nu >= last - 1e-9, "Nu({re}) = {nu} < {last}");
            last = nu;
        }
    }

    #[test]
    fn flat_plate_laminar_textbook() {
        // Re = 1e5, Pr = 0.7 -> Nu = 0.664 * 316.2 * 0.888 = 186.4
        let nu = nu_flat_plate(Reynolds::new(1e5), Prandtl::new(0.7)).value();
        assert!((nu - 186.4).abs() < 2.0, "Nu = {nu}");
    }

    #[test]
    fn pin_bank_branches_are_continuousish() {
        let pr = Prandtl::new(50.0);
        let lo = nu_pin_bank_staggered(Reynolds::new(99.0), pr, 1.25).value();
        let hi = nu_pin_bank_staggered(Reynolds::new(101.0), pr, 1.25).value();
        assert!((lo - hi).abs() / hi < 0.35);
        let lo = nu_pin_bank_staggered(Reynolds::new(999.0), pr, 1.25).value();
        let hi = nu_pin_bank_staggered(Reynolds::new(1001.0), pr, 1.25).value();
        assert!((lo - hi).abs() / hi < 0.35);
    }

    #[test]
    fn row_correction_monotone() {
        let mut last = 0.0;
        for rows in 1..25 {
            let c = pin_bank_row_correction(rows);
            assert!(c >= last);
            last = c;
        }
        assert_eq!(pin_bank_row_correction(25), 1.0);
    }

    #[test]
    fn liquid_duct_htc_exceeds_air() {
        // The paper's §2 claim: at similar surfaces and conventional agent
        // velocity, liquid transfers heat ~70x more intensively than air.
        let t = Celsius::new(40.0);
        let v = Velocity::from_meters_per_second(1.0);
        let d = Length::millimeters(10.0);
        let air = htc_duct(&Coolant::air().state(t), v, d);
        let water = htc_duct(&Coolant::water().state(t), v, d);
        assert!(water.watts_per_square_meter_kelvin() > 50.0 * air.watts_per_square_meter_kelvin());
        // Both laminar at this duct size/speed, oil still beats air by ~ the
        // conductivity ratio.
        let oil = htc_duct(&Coolant::mineral_oil_md45().state(t), v, d);
        assert!(oil.watts_per_square_meter_kelvin() > 4.0 * air.watts_per_square_meter_kelvin());
    }

    #[test]
    fn pin_bank_beats_laminar_plate_in_oil() {
        // The paper's §3 design point: pins trip turbulence, raising h.
        let s = Coolant::mineral_oil_md45().state(Celsius::new(40.0));
        let pins = htc_pin_bank(
            &s,
            Velocity::from_meters_per_second(0.8),
            Length::millimeters(3.0),
            8,
        );
        let plate = htc_flat_plate(
            &s,
            Velocity::from_meters_per_second(0.4),
            Length::millimeters(40.0),
        );
        assert!(
            pins.watts_per_square_meter_kelvin() > plate.watts_per_square_meter_kelvin(),
            "pins {pins}, plate {plate}"
        );
    }
}
