//! Property-based tests for the device models.

use rcs_devices::{reliability, FpgaPart, OperatingPoint, PowerModel};
use rcs_testkit::check;
use rcs_units::Celsius;

fn parts() -> Vec<FpgaPart> {
    FpgaPart::catalog()
}

/// Power is monotone in junction temperature for every part.
#[test]
fn power_monotone_in_temperature() {
    check("power_monotone_in_temperature", |g| {
        let idx = g.draw(0usize..5);
        let t = g.draw(20.0..100.0f64);
        let dt = g.draw(0.5..30.0f64);
        let u = g.draw(0.0..1.0f64);
        let model = PowerModel::for_part(&parts()[idx]);
        let op = OperatingPoint::at_utilization(u);
        let lo = model.power(op, Celsius::new(t));
        let hi = model.power(op, Celsius::new(t + dt));
        assert!(hi >= lo);
    });
}

/// Power is monotone in utilization for every part.
#[test]
fn power_monotone_in_utilization() {
    check("power_monotone_in_utilization", |g| {
        let idx = g.draw(0usize..5);
        let t = g.draw(20.0..90.0f64);
        let u = g.draw(0.0..0.9f64);
        let du = g.draw(0.01..0.1f64);
        let model = PowerModel::for_part(&parts()[idx]);
        let lo = model.power(OperatingPoint::at_utilization(u), Celsius::new(t));
        let hi = model.power(OperatingPoint::at_utilization(u + du), Celsius::new(t));
        assert!(hi >= lo);
    });
}

/// Static power is never negative and never exceeds total.
#[test]
fn static_power_bounds() {
    check("static_power_bounds", |g| {
        let idx = g.draw(0usize..5);
        let t = g.draw(0.0..120.0f64);
        let u = g.draw(0.0..1.0f64);
        let model = PowerModel::for_part(&parts()[idx]);
        let tj = Celsius::new(t);
        let total = model.power(OperatingPoint::at_utilization(u), tj);
        let static_ = model.static_power(tj);
        assert!(static_.watts() > 0.0);
        assert!(static_ <= total);
    });
}

/// MTBF strictly decreases with junction temperature.
#[test]
fn mtbf_decreases_with_temperature() {
    check("mtbf_decreases_with_temperature", |g| {
        let t = g.draw(20.0..100.0f64);
        let dt = g.draw(0.5..20.0f64);
        assert!(
            reliability::mtbf_hours(Celsius::new(t + dt))
                < reliability::mtbf_hours(Celsius::new(t))
        );
    });
}

/// Arrhenius acceleration stays positive and finite over the whole
/// plausible junction range.
#[test]
fn acceleration_is_positive_and_finite() {
    check("acceleration_is_positive_and_finite", |g| {
        let t = g.draw(-20.0..150.0f64);
        let af = reliability::acceleration_factor(Celsius::new(t));
        assert!(af.is_finite() && af > 0.0);
    });
}

/// Field MTBF scales inversely with population.
#[test]
fn field_mtbf_inverse_in_population() {
    check("field_mtbf_inverse_in_population", |g| {
        let t = g.draw(30.0..90.0f64);
        let n = g.draw(1usize..2000);
        let single = reliability::field_mtbf_hours(Celsius::new(t), 1);
        let field = reliability::field_mtbf_hours(Celsius::new(t), n);
        assert!((field * n as f64 - single).abs() < 1e-6 * single);
    });
}
