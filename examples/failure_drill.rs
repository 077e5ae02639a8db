//! Failure drill: a SKAT module loses its circulation pump mid-run. The
//! §2 control subsystem (level / flow / temperature sensors) watches the
//! transient and escalates through its alarm ladder.
//!
//! Run with `cargo run --release --example failure_drill`.

use rcs_sim::cooling::control::{Action, ControlSubsystem, Readings};
use rcs_sim::cooling::faults::{FaultKind, FaultTimeline, SensorChannel, SensorFault};
use rcs_sim::core::{FaultDrill, ImmersionModel};
use rcs_sim::numeric::rng::Rng;
use rcs_sim::obs::Sinks;
use rcs_sim::thermal::ThermalNetwork;
use rcs_sim::units::ThermalResistance;
use rcs_sim::units::{Celsius, Seconds, VolumeFlow};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = ImmersionModel::skat();
    let steady = model.solve()?;
    let control = ControlSubsystem::default();

    println!(
        "steady state: Tj {:.1}, oil {:.1}, flow {:.0} L/min — all sensors green\n",
        steady.junction,
        steady.coolant_hot,
        steady.coolant_flow.as_liters_per_minute()
    );

    // Pump failure: circulation stops, so the chip->bath path loses its
    // forced convection (natural convection only, ~5x worse) and the bath
    // loses its exchanger flow (the secondary loop still takes what
    // conduction delivers). Model the post-failure network explicitly.
    let chips = 96.0;
    let mut net = ThermalNetwork::new();
    let chip_node = net.add_node_with_capacitance("chip field", 150.0 * chips);
    let bath_node = net.add_node_with_capacitance("oil bath", 105_000.0);
    let water = net.add_boundary("chilled water", Celsius::new(20.0));
    // natural-convection chip stack: ~5x the forced-flow resistance
    net.connect(
        chip_node,
        bath_node,
        ThermalResistance::from_kelvin_per_watt(0.22 * 5.0 / chips),
    )?;
    // exchanger without oil flow: residual conduction only
    net.connect(
        bath_node,
        water,
        ThermalResistance::from_kelvin_per_watt(0.02),
    )?;
    net.add_heat(chip_node, steady.total_heat)?;

    let initial = vec![steady.junction, steady.coolant_hot, Celsius::new(20.0)];
    let trace = net.solve_transient_from(
        &initial,
        Seconds::minutes(12.0),
        Seconds::new(1.0),
        Sinks::disabled(),
    )?;

    println!("t+ [s]   Tj [°C]   bath [°C]   control verdict");
    let mut shutdown_at = None;
    for (t, tj) in trace.series(chip_node) {
        let step = t.seconds() as u64;
        if !step.is_multiple_of(60) {
            continue;
        }
        let bath = trace
            .series(bath_node)
            .iter()
            .find(|(tt, _)| *tt == t)
            .map_or(Celsius::new(0.0), |(_, temp)| *temp);
        let readings = Readings {
            coolant_level: 1.0,
            coolant_flow: VolumeFlow::ZERO, // the flow sensor sees the dead pump
            coolant_temperature: bath,
            component_temperature: tj,
        };
        let alarms = control.evaluate(&readings);
        // surface the most drastic recommended action
        let worst = alarms
            .iter()
            .find(|a| a.action == Action::EmergencyShutdown)
            .or_else(|| alarms.first());
        let verdict = worst.map_or("healthy".to_owned(), |a| {
            format!("{:?}: {}", a.action, a.message)
        });
        println!(
            "{step:>5}    {:>6.1}    {:>6.1}     {verdict}",
            tj.degrees(),
            bath.degrees()
        );
        if shutdown_at.is_none() && alarms.iter().any(|a| a.action == Action::EmergencyShutdown) {
            shutdown_at = Some(step);
        }
    }

    match shutdown_at {
        Some(t) => println!(
            "\nthe control subsystem orders emergency shutdown {t} s after the\n\
             pump failure — well before the junction reaches damaging levels.\n\
             (SKAT+ answers this class of event with a second, immersed pump.)"
        ),
        None => println!("\nno shutdown ordered within the drill window"),
    }

    // Act two: the same pump loss, replayed through the fault-injection
    // engine — this time with the agent-temperature transmitter stuck at
    // a lie. The hardened supervisor has to catch the seizure through
    // plausibility filtering and redundant probe voting alone.
    let timeline = FaultTimeline::new()
        .with_event(Seconds::minutes(2.0), FaultKind::PumpSeizure { pump: 0 })
        .with_event(
            Seconds::minutes(2.0),
            FaultKind::SensorFault {
                channel: SensorChannel::AgentTemperature,
                fault: SensorFault::StuckAt(28.5),
            },
        );
    let drill = FaultDrill::skat(
        "pump seizure + stuck agent sensor",
        timeline,
        Seconds::minutes(20.0),
    );
    // Record the drill trajectory into a bounded deterministic trace:
    // temperatures, flow, utilization, alarms and actions, one channel
    // each. Set RCS_OBS_TRACE=<file> to export it (NDJSON, or CSV for a
    // .csv path).
    let obs = rcs_sim::obs::Registry::new();
    let recorder = rcs_sim::obs::trace::TraceRecorder::new();
    let outcome = drill.run(
        &mut Rng::seed_from_u64(7),
        Sinks {
            obs: &obs,
            trace: &recorder,
            ..Sinks::disabled()
        },
    );

    println!("\nhardened drill: {}", outcome.name);
    match outcome.time_to_shutdown {
        Some(t) => println!("  emergency stop at t+{:.0} s", t.seconds()),
        None => println!("  no shutdown ordered"),
    }
    println!(
        "  peak junction {:.1} (limit violations: {}), failed channels: {}",
        outcome.peak_junction,
        outcome.violation_steps,
        if outcome.channel_health.failed_channels().is_empty() {
            "none".to_owned()
        } else {
            outcome.channel_health.failed_channels().join(", ")
        }
    );

    let snapshot = recorder.snapshot();
    println!("\nrecorded trace channels:");
    for channel in &snapshot.channels {
        let last = channel.samples.last().map_or(f64::NAN, |s| s.value);
        println!(
            "  {:<18} {:>4} kept of {:>4} pushed (stride {}), last = {:.2}",
            channel.name,
            channel.samples.len(),
            channel.pushed,
            channel.stride,
            last
        );
    }
    // exports to the file named by RCS_OBS_TRACE (no-op otherwise)
    rcs_sim::obs::trace::emit(&snapshot);
    Ok(())
}
