//! Scenario integration tests: the extension systems (the hardened
//! fault-drill supervisor, rack coupling, maintenance, energy) playing
//! together.

use rcs_sim::cooling::faults::{FaultKind, FaultTimeline, SensorChannel, SensorFault};
use rcs_sim::cooling::maintenance::{summarize, PlumbingTopology};
use rcs_sim::core::{experiments, FaultDrill, RackImmersionModel};
use rcs_sim::hydraulics::layout::ReturnStyle;
use rcs_sim::numeric::rng::Rng;
use rcs_sim::obs::Sinks;
use rcs_sim::thermal::Chiller;
use rcs_sim::units::{Celsius, Power, Seconds};

/// The rack model and the single-module model agree when the rack is
/// well-fed: a 12-module SKAT rack's hottest junction is within a kelvin
/// of the single-module solve.
#[test]
fn rack_and_module_models_agree_at_nominal() {
    let single = rcs_sim::core::ImmersionModel::skat()
        .solve()
        .expect("solves");
    let rack = RackImmersionModel::skat_rack(12).solve().expect("solves");
    assert!(
        (rack.hottest_junction().unwrap().degrees() - single.junction.degrees()).abs() < 1.5,
        "rack {} vs module {}",
        rack.hottest_junction().unwrap(),
        single.junction
    );
}

/// Manifold layout shows up in rack thermal uniformity, not just in flow
/// numbers: direct return spreads junction temperatures more than
/// reverse return.
#[test]
fn manifold_layout_propagates_to_junction_spread() {
    let reverse = RackImmersionModel::skat_rack(8).solve().expect("solves");
    let direct = RackImmersionModel::skat_rack(8)
        .with_manifold_style(ReturnStyle::Direct)
        .solve()
        .expect("solves");
    assert!(direct.junction_spread_k().unwrap() > reverse.junction_spread_k().unwrap());
    // but immersion headroom absorbs even the direct layout
    assert!(direct.hottest_junction().unwrap().degrees() < 67.5);
}

/// Facility sizing: a SKAT+ rack wants more chiller than SKAT's; the
/// model quantifies how much.
#[test]
fn facility_sizing_for_the_upgrade() {
    let skat = RackImmersionModel::skat_rack(12).solve().expect("solves");
    let plus = RackImmersionModel::skat_plus_rack(12)
        .with_chiller(Chiller::new(
            Celsius::new(20.0),
            Power::kilowatts(220.0),
            4.5,
        ))
        .solve()
        .expect("solves");
    assert!(plus.total_heat.watts() > 1.2 * skat.total_heat.watts());
    assert!(plus.within_chiller_capacity);
}

/// Maintenance topology and Monte-Carlo availability tell one story: the
/// architectures ordered best-to-worst the same way by both analyses.
#[test]
fn serviceability_and_availability_agree() {
    let skat = summarize(PlumbingTopology::SelfContainedModules, 12);
    let immers = summarize(PlumbingTopology::CentralizedImmersion, 12);
    assert!(skat.lost_module_hours_per_year < immers.lost_module_hours_per_year);

    let reliability = experiments::e12_reliability_mc::rows(Sinks::disabled());
    let im = reliability
        .iter()
        .find(|r| r.architecture.contains("SKAT)"))
        .unwrap();
    let cp = reliability
        .iter()
        .find(|r| r.architecture.contains("cold plates"))
        .unwrap();
    assert!(im.availability > cp.availability);
}

/// Acceptance drill for the fault-injection engine: a total circulation
/// loss whose ground truth crosses the reliability ceiling open-loop
/// must be pre-empted by the hardened supervisor — which is watching
/// through a stuck agent-temperature transmitter the whole time.
#[test]
fn hardened_supervisor_preempts_hardware_damage_behind_a_lying_sensor() {
    let timeline = FaultTimeline::new()
        .with_event(Seconds::minutes(2.0), FaultKind::PumpSeizure { pump: 0 })
        .with_event(
            Seconds::minutes(2.0),
            FaultKind::SensorFault {
                channel: SensorChannel::AgentTemperature,
                fault: SensorFault::StuckAt(28.5),
            },
        );
    let drill = FaultDrill::skat("seizure behind a lie", timeline, Seconds::minutes(20.0));

    let open_loop = drill.run_open_loop(&mut Rng::seed_from_u64(11), Sinks::disabled());
    assert!(
        open_loop.violation_steps > 0,
        "unsupervised drill must actually endanger the hardware: {open_loop:?}"
    );

    let supervised = drill.run(&mut Rng::seed_from_u64(11), Sinks::disabled());
    assert!(supervised.shut_down);
    assert_eq!(supervised.violation_steps, 0, "{supervised:?}");
    assert!(supervised.peak_junction.degrees() < 67.5);
    assert!(supervised.solver_failure.is_none());
}

/// Every extension experiment renders alongside the paper ones.
#[test]
fn extended_harness_renders() {
    let tables = experiments::run_all(Sinks::disabled());
    let titles: Vec<&str> = tables.iter().map(|t| t.title.as_str()).collect();
    for needle in ["E13a", "E14", "E15", "E7b", "E17"] {
        assert!(
            titles.iter().any(|t| t.contains(needle)),
            "missing {needle} in {titles:?}"
        );
    }
}
