//! Randomized checkpoint/restore properties for every kernel-ported
//! loop.
//!
//! The resume-equivalence contract (`DESIGN.md`, "Kernel & snapshot
//! contract") says: for any scenario and any split point `k`,
//!
//! ```text
//! run(k); snapshot; restore into fresh sinks; run(rest)
//! ```
//!
//! is **bitwise** indistinguishable from the uninterrupted run — on
//! results, golden counters, histogram buckets, trace samples and RNG
//! positions alike. The differential tests in the workspace root pin
//! the five experiment profiles; these properties cover the scenario
//! space around them with randomly drawn problems and randomly drawn
//! split points, one property per ported session:
//!
//! * random thermal networks through [`rcs_thermal::TransientSession`];
//! * random fault drills through [`rcs_core::DrillSession`] — split
//!   points land mid-drill, while filters, alarm votes and the partial
//!   outcome are all live;
//! * random immersion warm-ups through [`rcs_core::WarmupSession`];
//! * random availability studies through
//!   [`rcs_cooling::availability::McSession`], resumed at a *different*
//!   thread count than the original run;
//! * corrupted / truncated snapshot bytes, which must come back as
//!   structured [`rcs_kernel::SnapshotError`]s — never a panic.

use rcs_cooling::availability::{self, McSession};
use rcs_cooling::faults::{FaultKind, FaultTimeline};
use rcs_cooling::risk;
use rcs_cooling::{ColdPlateLoop, CoolingArchitecture, ImmersionBath};
use rcs_core::{DrillSession, FaultDrill, ImmersionModel, WarmupSession};
use rcs_devices::OperatingPoint;
use rcs_kernel::SnapshotError;
use rcs_numeric::rng::Rng;
use rcs_obs::trace::TraceRecorder;
use rcs_obs::{Registry, Sinks};
use rcs_testkit::{check_cases, Gen};
use rcs_thermal::{NodeId, ThermalNetwork, TransientSession};
use rcs_units::{Celsius, Power, Seconds, ThermalResistance};

/// Draws a small random thermal network: a chain of 1–4 internal nodes
/// with random capacitances and heat loads, each leaking to a random
/// ambient boundary. Returns every node id alongside, in insertion
/// order, for sample-by-sample trace comparison.
fn random_network(g: &mut Gen) -> (ThermalNetwork, Vec<NodeId>) {
    let mut net = ThermalNetwork::new();
    let ambient = net.add_boundary("amb", Celsius::new(g.draw(-10.0..45.0)));
    let mut nodes = vec![ambient];
    let n = g.draw(1usize..=4);
    let mut prev = None;
    for i in 0..n {
        let node = net.add_node_with_capacitance(format!("n{i}"), g.draw(5.0..250.0));
        net.connect(
            node,
            ambient,
            ThermalResistance::from_kelvin_per_watt(g.draw(0.05..2.0)),
        )
        .expect("distinct nodes");
        if let Some(p) = prev {
            net.connect(
                node,
                p,
                ThermalResistance::from_kelvin_per_watt(g.draw(0.02..1.0)),
            )
            .expect("distinct nodes");
        }
        net.add_heat(node, Power::from_watts(g.draw(0.0..180.0)))
            .expect("internal node");
        nodes.push(node);
        prev = Some(node);
    }
    (net, nodes)
}

/// Bit-compares two transient traces sample by sample over `nodes`.
fn assert_traces_bitwise(
    a: &rcs_thermal::TransientTrace,
    b: &rcs_thermal::TransientTrace,
    nodes: &[NodeId],
) {
    assert_eq!(a.len(), b.len(), "sample counts differ");
    for (i, (ta, tb)) in a.times().iter().zip(b.times()).enumerate() {
        assert_eq!(
            ta.seconds().to_bits(),
            tb.seconds().to_bits(),
            "time base diverged at sample {i}"
        );
        for &node in nodes {
            let (va, vb) = (a.temperature(i, node), b.temperature(i, node));
            assert_eq!(
                va.degrees().to_bits(),
                vb.degrees().to_bits(),
                "node {node:?} diverged at sample {i}"
            );
        }
    }
}

/// Bit-compares two `(time, temperature)` series.
fn assert_series_bitwise(a: &[(Seconds, Celsius)], b: &[(Seconds, Celsius)], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: sample counts differ");
    for (i, ((ta, va), (tb, vb))) in a.iter().zip(b).enumerate() {
        assert_eq!(
            ta.seconds().to_bits(),
            tb.seconds().to_bits(),
            "{what}: time base diverged at sample {i}"
        );
        assert_eq!(
            va.degrees().to_bits(),
            vb.degrees().to_bits(),
            "{what}: value diverged at sample {i}"
        );
    }
}

#[test]
fn transient_resume_is_bitwise_for_random_networks_and_splits() {
    check_cases("transient_resume_roundtrip", 48, |g| {
        let (net, nodes) = random_network(g);
        let initial = net.uniform_initial(Celsius::new(g.draw(10.0..40.0)));
        let duration = Seconds::new(g.draw(0.5..120.0));
        let max_step = Seconds::new(g.draw(0.05..5.0));

        let obs_ref = Registry::new();
        let trace_ref = TraceRecorder::new();
        let mut straight =
            TransientSession::new(&net, &initial, duration, max_step).expect("valid problem");
        straight.run(&net, u64::MAX);
        let reference = straight.finish(&net, Sinks::counters(&obs_ref));

        let k = g.draw(0u64..=reference.len() as u64 + 1);
        let obs_a = Registry::new();
        let trace_a = TraceRecorder::new();
        let sinks_a = Sinks {
            obs: &obs_a,
            trace: &trace_a,
            ..Sinks::disabled()
        };
        let mut session =
            TransientSession::new(&net, &initial, duration, max_step).expect("valid problem");
        session.run(&net, k);
        let bytes = session.checkpoint(sinks_a);

        let obs_b = Registry::new();
        let trace_b = TraceRecorder::new();
        let sinks_b = Sinks {
            obs: &obs_b,
            trace: &trace_b,
            ..Sinks::disabled()
        };
        let mut resumed = TransientSession::resume(&net, &bytes, sinks_b).expect("snapshot opens");
        resumed.run(&net, u64::MAX);
        assert!(resumed.is_finished());
        let finished = resumed.finish(&net, Sinks::counters(&obs_b));

        assert_traces_bitwise(&reference, &finished, &nodes);
        assert_eq!(
            obs_b.snapshot(),
            obs_ref.snapshot(),
            "counters at split {k}"
        );
        assert_eq!(
            trace_b.snapshot(),
            trace_ref.snapshot(),
            "traces at split {k}"
        );
    });
}

/// Draws a random fault timeline of 1–2 events from the hydraulic and
/// chiller fault families, onsetting inside the drill horizon.
fn random_timeline(g: &mut Gen, duration: Seconds) -> FaultTimeline {
    let mut timeline = FaultTimeline::new();
    let events = g.draw(1usize..=2);
    for _ in 0..events {
        let onset = Seconds::new(g.draw(0.0..duration.seconds() * 0.8));
        let kind = match g.index(5) {
            0 => FaultKind::PumpSeizure { pump: 0 },
            1 => FaultKind::ImpellerWear {
                head_decay_per_hour: g.draw(0.05..0.5),
            },
            2 => FaultKind::ExchangerFouling {
                rate_k_per_w_per_hour: g.draw(1e-4..5e-3),
            },
            3 => FaultKind::ChillerSetpointDrift {
                rate_k_per_hour: g.draw(0.5..8.0),
            },
            _ => FaultKind::ChillerCapacityLoss {
                capacity_factor: g.draw(0.2..0.8),
            },
        };
        timeline = timeline.with_event(onset, kind);
    }
    timeline
}

#[test]
fn drill_resume_is_bitwise_even_mid_chaos() {
    check_cases("drill_resume_roundtrip", 10, |g| {
        let duration = Seconds::minutes(g.draw(3.0..8.0));
        let timeline = random_timeline(g, duration);
        let drill = if g.bool(0.5) {
            FaultDrill::skat("roundtrip", timeline, duration)
        } else {
            FaultDrill::skat_plus("roundtrip", timeline, duration)
        };
        let supervised = g.bool(0.7);
        let seed = g.draw(0u64..=u64::MAX - 1);

        let obs_ref = Registry::new();
        let trace_ref = TraceRecorder::new();
        let sinks_ref = Sinks {
            obs: &obs_ref,
            trace: &trace_ref,
            ..Sinks::disabled()
        };
        let mut straight =
            match DrillSession::new(&drill, Rng::seed_from_u64(seed), supervised, sinks_ref) {
                Ok(s) => s,
                // A baseline solve failure is a legal early exit, not a
                // roundtrip scenario.
                Err(_) => return,
            };
        straight.run(&drill, sinks_ref, u64::MAX);
        let (reference, rng_ref) = straight.finish(Sinks::counters(&obs_ref));

        // Splits inside the horizon, biased so some land after fault
        // onset (mid-chaos) and some at the endpoints.
        let k = g.draw(0u64..=reference.steps as u64 + 1);
        let obs_a = Registry::new();
        let trace_a = TraceRecorder::new();
        let sinks_a = Sinks {
            obs: &obs_a,
            trace: &trace_a,
            ..Sinks::disabled()
        };
        let mut session = DrillSession::new(&drill, Rng::seed_from_u64(seed), supervised, sinks_a)
            .expect("baseline solved above");
        session.run(&drill, sinks_a, k);
        let bytes = session.checkpoint(sinks_a);

        let obs_b = Registry::new();
        let trace_b = TraceRecorder::new();
        let sinks_b = Sinks {
            obs: &obs_b,
            trace: &trace_b,
            ..Sinks::disabled()
        };
        let mut resumed = DrillSession::resume(&drill, &bytes, sinks_b).expect("snapshot opens");
        resumed.run(&drill, sinks_b, u64::MAX);
        let (outcome, rng_b) = resumed.finish(Sinks::counters(&obs_b));

        assert_eq!(outcome, reference, "outcome diverged at split {k}");
        assert_eq!(
            obs_b.snapshot(),
            obs_ref.snapshot(),
            "counters at split {k}"
        );
        assert_eq!(
            trace_b.snapshot(),
            trace_ref.snapshot(),
            "traces at split {k}"
        );
        assert_eq!(rng_b.state(), rng_ref.state(), "rng stream at split {k}");
    });
}

#[test]
fn warmup_resume_is_bitwise_for_random_operating_points() {
    check_cases("warmup_resume_roundtrip", 12, |g| {
        let model = if g.bool(0.5) {
            ImmersionModel::skat()
        } else {
            ImmersionModel::skat_plus()
        }
        .with_operating_point(OperatingPoint::at_utilization(g.draw(0.3..1.0)));
        let duration = Seconds::new(g.draw(60.0..600.0));
        let step = Seconds::new(g.draw(1.0..10.0));

        let obs_ref = Registry::new();
        let trace_ref = TraceRecorder::new();
        let sinks_ref = Sinks {
            obs: &obs_ref,
            trace: &trace_ref,
            ..Sinks::disabled()
        };
        let mut straight = WarmupSession::new(&model, duration, step, Sinks::counters(&obs_ref))
            .expect("model warms up");
        straight.run(u64::MAX);
        let reference = straight.finish(sinks_ref);

        let k = g.draw(0u64..=reference.trace().len() as u64 + 1);
        let obs_a = Registry::new();
        let trace_a = TraceRecorder::new();
        let sinks_a = Sinks {
            obs: &obs_a,
            trace: &trace_a,
            ..Sinks::disabled()
        };
        let mut session = WarmupSession::new(&model, duration, step, Sinks::counters(&obs_a))
            .expect("model warms up");
        session.run(k);
        let bytes = session.checkpoint(sinks_a);

        let obs_b = Registry::new();
        let trace_b = TraceRecorder::new();
        let sinks_b = Sinks {
            obs: &obs_b,
            trace: &trace_b,
            ..Sinks::disabled()
        };
        let mut resumed = WarmupSession::resume(&model, &bytes, sinks_b).expect("snapshot opens");
        resumed.run(u64::MAX);
        assert!(resumed.is_finished());
        let finished = resumed.finish(sinks_b);

        assert_series_bitwise(&reference.chip_series(), &finished.chip_series(), "chip");
        assert_series_bitwise(&reference.bath_series(), &finished.bath_series(), "bath");
        assert_eq!(
            reference.final_chip_temperature().degrees().to_bits(),
            finished.final_chip_temperature().degrees().to_bits(),
            "chip endpoint at split {k}"
        );
        assert_eq!(
            reference.final_bath_temperature().degrees().to_bits(),
            finished.final_bath_temperature().degrees().to_bits(),
            "bath endpoint at split {k}"
        );
        assert_eq!(
            obs_b.snapshot(),
            obs_ref.snapshot(),
            "counters at split {k}"
        );
        assert_eq!(
            trace_b.snapshot(),
            trace_ref.snapshot(),
            "traces at split {k}"
        );
    });
}

#[test]
fn mc_resume_is_bitwise_even_across_thread_counts() {
    check_cases("mc_resume_roundtrip", 12, |g| {
        let classes = if g.bool(0.5) {
            risk::failure_classes(&CoolingArchitecture::Immersion(
                ImmersionBath::skat_default(),
            ))
        } else {
            risk::failure_classes(&CoolingArchitecture::ColdPlate(
                ColdPlateLoop::per_chip_plates(g.draw(16usize..=128)),
            ))
        };
        let horizon = g.draw(1.0..4.0);
        let trials = g.draw(65usize..=300);
        let seed = g.draw(0u64..=u64::MAX - 1);
        let threads_a = g.draw(1usize..=4);
        let threads_b = g.draw(1usize..=4);

        let obs_ref = Registry::new();
        let trace_ref = TraceRecorder::new();
        let sinks_ref = Sinks {
            obs: &obs_ref,
            trace: &trace_ref,
            ..Sinks::disabled()
        };
        let reference = availability::monte_carlo_with_threads(
            &classes, horizon, trials, seed, threads_a, sinks_ref,
        );

        // Split at a random chunk boundary, then resume at a (possibly)
        // different worker count: the report must not notice.
        let obs_a = Registry::new();
        let trace_a = TraceRecorder::new();
        let sinks_a = Sinks {
            obs: &obs_a,
            trace: &trace_a,
            ..Sinks::disabled()
        };
        let mut session = McSession::new(horizon, trials, seed, threads_a, Sinks::counters(&obs_a));
        let k = g.draw(0u64..=trials as u64 / 64 + 2);
        session.advance(&classes, sinks_a, k);
        let bytes = session.checkpoint(sinks_a);

        let obs_b = Registry::new();
        let trace_b = TraceRecorder::new();
        let sinks_b = Sinks {
            obs: &obs_b,
            trace: &trace_b,
            ..Sinks::disabled()
        };
        let mut resumed = McSession::resume(&bytes, threads_b, sinks_b).expect("snapshot opens");
        while resumed.advance(&classes, sinks_b, u64::MAX) > 0 {}
        let report = resumed.finish();

        assert_eq!(
            report, reference,
            "report diverged at split {k} ({threads_a}→{threads_b} workers)"
        );
        assert_eq!(
            obs_b.snapshot(),
            obs_ref.snapshot(),
            "counters at split {k}"
        );
        assert_eq!(
            trace_b.snapshot(),
            trace_ref.snapshot(),
            "traces at split {k}"
        );
    });
}

#[test]
fn corrupted_snapshots_are_structured_errors_never_panics() {
    check_cases("corrupt_snapshot_total_decoding", 64, |g| {
        let (net, _nodes) = random_network(g);
        let initial = net.uniform_initial(Celsius::new(25.0));
        let obs = Registry::new();
        let trace = TraceRecorder::new();
        let sinks = Sinks {
            obs: &obs,
            trace: &trace,
            ..Sinks::disabled()
        };
        let mut session = TransientSession::new(
            &net,
            &initial,
            Seconds::new(g.draw(1.0..30.0)),
            Seconds::new(g.draw(0.1..2.0)),
        )
        .expect("valid problem");
        session.run(&net, g.draw(0u64..=16));
        let bytes = session.checkpoint(sinks);

        // Sanity: the pristine bytes do open.
        assert!(TransientSession::resume(&net, &bytes, Sinks::disabled()).is_ok());

        // A wrong-kind open is rejected before any payload decoding.
        assert!(matches!(
            rcs_kernel::open("cooling.mc", &bytes),
            Err(SnapshotError::BadKind { .. })
        ));

        // Truncation at a random point: structured error, never panic.
        let cut = g.index(bytes.len());
        let err = TransientSession::resume(&net, &bytes[..cut], Sinks::disabled())
            .expect_err("truncated bytes must not decode");
        let _ = err.to_string(); // Display is total too.

        // A single flipped bit anywhere: structured error, never panic.
        let mut corrupt = bytes.clone();
        let at = g.index(corrupt.len());
        corrupt[at] ^= 1 << g.index(8);
        let err = TransientSession::resume(&net, &corrupt, Sinks::disabled())
            .expect_err("corrupted bytes must not decode");
        let _ = err.to_string();
    });
}
