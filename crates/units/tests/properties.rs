//! Property-based tests for unit arithmetic invariants.

use rcs_testkit::{check, Gen};
use rcs_units::{
    Area, Celsius, Density, Length, Power, Seconds, SpecificHeat, TempDelta, ThermalResistance,
    Velocity, VolumeFlow,
};

fn finite(g: &mut Gen) -> f64 {
    g.draw(-1e6..1e6f64)
}

fn positive(g: &mut Gen) -> f64 {
    g.draw(1e-6..1e6f64)
}

#[test]
fn celsius_kelvin_round_trip() {
    check("celsius_kelvin_round_trip", |g| {
        let t = finite(g);
        let c = Celsius::new(t);
        assert!((c.to_kelvin().to_celsius().degrees() - t).abs() < 1e-9);
    });
}

#[test]
fn delta_addition_is_commutative() {
    check("delta_addition_is_commutative", |g| {
        let (a, b) = (finite(g), finite(g));
        let x = TempDelta::from_kelvins(a) + TempDelta::from_kelvins(b);
        let y = TempDelta::from_kelvins(b) + TempDelta::from_kelvins(a);
        assert_eq!(x, y);
    });
}

#[test]
fn shift_then_unshift_is_identity() {
    check("shift_then_unshift_is_identity", |g| {
        let (t, d) = (finite(g), finite(g));
        let c = Celsius::new(t);
        let back = (c + TempDelta::from_kelvins(d)) - TempDelta::from_kelvins(d);
        assert!((back.degrees() - t).abs() < 1e-6);
    });
}

#[test]
fn subtraction_recovers_shift() {
    check("subtraction_recovers_shift", |g| {
        let (t, d) = (finite(g), finite(g));
        let c = Celsius::new(t);
        let shifted = c + TempDelta::from_kelvins(d);
        assert!(((shifted - c).kelvins() - d).abs() < 1e-6);
    });
}

#[test]
fn resistance_series_exceeds_max() {
    check("resistance_series_exceeds_max", |g| {
        let (a, b) = (positive(g), positive(g));
        let s = ThermalResistance::from_kelvin_per_watt(a)
            .in_series(ThermalResistance::from_kelvin_per_watt(b));
        assert!(s.kelvin_per_watt() >= a.max(b));
    });
}

#[test]
fn power_resistance_delta_consistency() {
    check("power_resistance_delta_consistency", |g| {
        let (p, r) = (positive(g), positive(g));
        let dt = Power::from_watts(p) * ThermalResistance::from_kelvin_per_watt(r);
        let back = dt / ThermalResistance::from_kelvin_per_watt(r);
        assert!((back.watts() - p).abs() / p < 1e-12);
    });
}

#[test]
fn energy_power_time_consistency() {
    check("energy_power_time_consistency", |g| {
        let (p, s) = (positive(g), positive(g));
        let e = Power::from_watts(p) * Seconds::new(s);
        assert!(((e / Seconds::new(s)).watts() - p).abs() / p < 1e-12);
        assert!(((e / Power::from_watts(p)).seconds() - s).abs() / s < 1e-12);
    });
}

#[test]
fn geometry_associativity() {
    check("geometry_associativity", |g| {
        let (a, b, c) = (positive(g), positive(g), positive(g));
        let v1 = (Length::from_meters(a) * Length::from_meters(b)) * Length::from_meters(c);
        let v2 = Length::from_meters(a) * (Length::from_meters(b) * Length::from_meters(c));
        assert!((v1.cubic_meters() - v2.cubic_meters()).abs() <= 1e-9 * v1.cubic_meters());
    });
}

#[test]
fn flow_velocity_round_trip() {
    check("flow_velocity_round_trip", |g| {
        let (q, a) = (positive(g), positive(g));
        let flow = VolumeFlow::from_cubic_meters_per_second(q);
        let area = Area::from_square_meters(a);
        let v: Velocity = flow / area;
        let back = v * area;
        assert!((back.cubic_meters_per_second() - q).abs() / q < 1e-12);
    });
}

#[test]
fn mass_flow_scaling_linear() {
    check("mass_flow_scaling_linear", |g| {
        let (q, rho) = (positive(g), positive(g));
        let k = g.draw(1e-3..1e3f64);
        let base = VolumeFlow::from_cubic_meters_per_second(q) * Density::new(rho);
        let scaled = VolumeFlow::from_cubic_meters_per_second(q * k) * Density::new(rho);
        assert!(
            (scaled.kg_per_second() - base.kg_per_second() * k).abs()
                <= 1e-9 * scaled.kg_per_second().abs()
        );
    });
}

#[test]
fn capacity_rate_rise_inverse() {
    check("capacity_rate_rise_inverse", |g| {
        use rcs_units::MassFlow;
        let (p, m, cp) = (positive(g), positive(g), positive(g));
        let cap = MassFlow::from_kg_per_second(m) * SpecificHeat::new(cp);
        let rise = Power::from_watts(p) / cap;
        let back = cap * rise;
        assert!((back.watts() - p).abs() / p < 1e-12);
    });
}
