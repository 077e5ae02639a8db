//! Property-based tests for fluid tables and correlations.

use rcs_fluids::{correlations, Coolant, Prandtl, Reynolds};
use rcs_testkit::check;
use rcs_units::{Celsius, Length, Velocity};

fn coolants() -> Vec<Coolant> {
    vec![
        Coolant::air(),
        Coolant::water(),
        Coolant::glycol30(),
        Coolant::mineral_oil_md45(),
        Coolant::src_dielectric(),
    ]
}

#[test]
fn states_are_physical_everywhere() {
    check("states_are_physical_everywhere", |g| {
        let t = g.draw(-50.0..150.0f64);
        let idx = g.draw(0usize..5);
        let c = &coolants()[idx];
        let s = c.state(Celsius::new(t));
        assert!(s.density.kg_per_cubic_meter() > 0.0);
        assert!(s.specific_heat.joules_per_kg_kelvin() > 0.0);
        assert!(s.conductivity.watts_per_meter_kelvin() > 0.0);
        assert!(s.viscosity.pascal_seconds() > 0.0);
        assert!(s.prandtl().value() > 0.0);
    });
}

#[test]
fn liquid_viscosity_never_increases_with_temperature() {
    check("liquid_viscosity_never_increases_with_temperature", |g| {
        let t1 = g.draw(0.0..80.0f64);
        let dt = g.draw(0.1..40.0f64);
        let idx = g.draw(1usize..5);
        let c = &coolants()[idx];
        let lo = c.state(Celsius::new(t1)).viscosity.pascal_seconds();
        let hi = c.state(Celsius::new(t1 + dt)).viscosity.pascal_seconds();
        assert!(hi <= lo + 1e-15);
    });
}

#[test]
fn duct_nu_monotone_in_re() {
    check("duct_nu_monotone_in_re", |g| {
        let re1 = g.draw(10.0..1e5f64);
        let k = g.draw(1.01..10.0f64);
        let pr = g.draw(0.7..500.0f64);
        let lo = correlations::nu_duct(Reynolds::new(re1), Prandtl::new(pr)).value();
        let hi = correlations::nu_duct(Reynolds::new(re1 * k), Prandtl::new(pr)).value();
        assert!(hi >= lo - 1e-9, "Nu({re1}) = {lo}, Nu({}) = {hi}", re1 * k);
    });
}

#[test]
fn nu_monotone_in_pr_turbulent() {
    check("nu_monotone_in_pr_turbulent", |g| {
        let re = g.draw(5000.0..2e5f64);
        let pr1 = g.draw(0.7..100.0f64);
        let k = g.draw(1.01..5.0f64);
        let lo = correlations::nu_gnielinski(Reynolds::new(re), Prandtl::new(pr1)).value();
        let hi = correlations::nu_gnielinski(Reynolds::new(re), Prandtl::new(pr1 * k)).value();
        assert!(hi >= lo);
    });
}

#[test]
fn friction_factor_positive_and_bounded() {
    check("friction_factor_positive_and_bounded", |g| {
        let re = g.draw(1.0..5e6f64);
        let f = correlations::friction_factor_smooth(Reynolds::new(re));
        assert!(f > 0.0 && f <= 64.0, "f({re}) = {f}");
    });
}

#[test]
fn htc_monotone_in_velocity() {
    check("htc_monotone_in_velocity", |g| {
        let v = g.draw(0.05..5.0f64);
        let k = g.draw(1.1..4.0f64);
        let t = g.draw(10.0..70.0f64);
        let idx = g.draw(0usize..5);
        let s = coolants()[idx].state(Celsius::new(t));
        let d = Length::millimeters(8.0);
        let lo = correlations::htc_duct(&s, Velocity::from_meters_per_second(v), d);
        let hi = correlations::htc_duct(&s, Velocity::from_meters_per_second(v * k), d);
        assert!(hi.watts_per_square_meter_kelvin() >= lo.watts_per_square_meter_kelvin() - 1e-9);
    });
}

#[test]
fn pin_bank_row_correction_never_amplifies() {
    check("pin_bank_row_correction_never_amplifies", |g| {
        let rows = g.draw(0usize..40);
        let c = correlations::pin_bank_row_correction(rows);
        assert!(c > 0.0 && c <= 1.0);
    });
}
