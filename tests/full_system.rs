//! End-to-end integration: utilization → power → cooling → rules,
//! across every crate in the workspace.

use rcs_sim::core::{rules, AirCooledModel, ColdPlateModel, ImmersionModel};
use rcs_sim::devices::{reliability, OperatingPoint};
use rcs_sim::obs::Sinks;
use rcs_sim::platform::{presets, Rack};
use rcs_sim::units::{Celsius, Seconds};

/// The paper's pipeline at full load: every SKAT FPGA at 100 %
/// utilization through the power model, cooled by the immersion system,
/// checked against the §3 envelope and operating rules.
#[test]
fn full_load_stays_in_the_envelope_but_breaks_the_agent_rule() {
    let report = ImmersionModel::skat()
        .with_operating_point(OperatingPoint::at_utilization(1.0))
        .solve()
        .expect("solves");

    // the envelope the prototype demonstrated
    assert!(
        report.junction.degrees() < 56.0,
        "junction {}",
        report.junction
    );
    assert!(
        report.coolant_hot.degrees() < 31.0,
        "oil {}",
        report.coolant_hot
    );
    // at full load the oil runs just above the 30 °C agent limit while
    // both junction rules still hold
    let failed: Vec<_> = rules::operating_rules(&report)
        .into_iter()
        .filter(|c| !c.passed)
        .map(|c| c.rule)
        .collect();
    assert_eq!(failed, ["heat-transfer agent at or below 30 °C"]);
}

/// Architecture ordering at the UltraScale generation: air fails, both
/// liquid options work, immersion carries the operational argument.
#[test]
fn architecture_ordering_at_ultrascale() {
    let air = AirCooledModel::for_module(presets::skat()).solve();
    let plates = ColdPlateModel::for_module(presets::skat())
        .solve()
        .expect("plates solve");
    let immersion = ImmersionModel::skat().solve().expect("immersion solves");

    // air: runaway or far beyond the reliability window
    if let Ok(r) = air {
        assert!(r.junction.degrees() > 67.5)
    }
    assert!(plates.junction.degrees() < 67.5);
    assert!(immersion.junction.degrees() < 55.0);
}

/// The immersion advantage compounds at rack scale: 12 modules, >1 PFlops
/// (SKAT+), chiller-class heat, months-scale chip MTBF.
#[test]
fn rack_scale_story() {
    let rack = Rack::with_modules(47.0, presets::skat_plus(), 12).expect("12 x 3U fit");
    assert!(rack.peak_performance().as_petaflops() > 1.0);

    let report = ImmersionModel::skat_plus().solve().expect("solves");
    let heat = rack.total_heat(OperatingPoint::operating_mode(), report.junction);
    assert!(heat.as_kilowatts() > 80.0 && heat.as_kilowatts() < 250.0);

    let mtbf_hours = reliability::field_mtbf_hours(report.junction, rack.compute_fpga_count());
    assert!(
        mtbf_hours > 24.0 * 7.0,
        "rack chip-failure interval {mtbf_hours} h"
    );
}

/// Transient and steady solvers agree: warm-up converges to the coupled
/// steady state from a cold start.
#[test]
fn transient_agrees_with_steady_state() {
    let model = ImmersionModel::skat();
    let steady = model.solve().expect("solves");
    let warmup = model
        .warmup(Seconds::hours(3.0), Seconds::new(2.0), Sinks::disabled())
        .expect("integrates");
    assert!((warmup.final_chip_temperature().degrees() - steady.junction.degrees()).abs() < 6.0);
    assert!((warmup.final_bath_temperature().degrees() - steady.coolant_hot.degrees()).abs() < 6.0);
}

/// The §1 reliability rule connects temperatures to wear: SKAT's immersion
/// junction buys a >3x life extension over Taygeta's air-cooled one.
#[test]
fn reliability_gain_from_immersion() {
    let taygeta = AirCooledModel::for_module(presets::taygeta())
        .solve()
        .expect("converges");
    let skat = ImmersionModel::skat().solve().expect("solves");
    let gain = reliability::failure_rate_fit(taygeta.junction)
        / reliability::failure_rate_fit(skat.junction);
    assert!(gain > 3.0, "wear-out acceleration ratio {gain}");
    assert!(reliability::within_reliable_range(
        rcs_sim::devices::FpgaFamily::UltraScale,
        skat.junction
    ));
    assert!(!reliability::within_reliable_range(
        rcs_sim::devices::FpgaFamily::Virtex7,
        taygeta.junction
    ));
}

/// Facade exports are wired: one value of each crate's flagship type.
#[test]
fn facade_reexports_work() {
    let _ = rcs_sim::units::Celsius::new(25.0);
    let _ = rcs_sim::numeric::Matrix::identity(2);
    let _ = rcs_sim::fluids::Coolant::water();
    let _ = rcs_sim::thermal::ThermalNetwork::new();
    let _ = rcs_sim::hydraulics::HydraulicNetwork::new();
    let _ = rcs_sim::devices::FpgaPart::xcku095();
    let _ = rcs_sim::platform::presets::skat();
    let _ = rcs_sim::cooling::ImmersionBath::skat_default();
    let _ = Celsius::new(0.0);
}
