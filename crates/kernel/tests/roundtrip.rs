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
//!   structured [`rcs_kernel::SnapshotError`]s — never a panic — both
//!   in the sealed envelope and, resealed past the checksum, in the
//!   payload decoder itself.

use rcs_cooling::availability::{self, McSession};
use rcs_cooling::faults::{FaultKind, FaultTimeline};
use rcs_cooling::risk;
use rcs_cooling::{ColdPlateLoop, CoolingArchitecture, ImmersionBath};
use rcs_core::{DrillSession, FaultDrill, ImmersionModel, WarmupSession, DRILL_SNAPSHOT_KIND};
use rcs_devices::OperatingPoint;
use rcs_kernel::SnapshotError;
use rcs_numeric::hash::Fnv1a;
use rcs_numeric::rng::Rng;
use rcs_obs::span::SpanSink;
use rcs_obs::trace::{ChannelKind, TraceRecorder};
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

#[test]
fn corrupted_payloads_resealed_past_the_checksum_never_plant_a_panic() {
    check_cases("corrupt_payload_total_decoding", 8, |g| {
        let duration = Seconds::minutes(g.draw(3.0..8.0));
        let drill = FaultDrill::skat("corrupt", random_timeline(g, duration), duration);
        let obs = Registry::new();
        let seed = g.draw(0u64..=u64::MAX - 1);
        let Ok(mut session) = DrillSession::new(
            &drill,
            Rng::seed_from_u64(seed),
            true,
            Sinks::counters(&obs),
        ) else {
            return;
        };
        // Mid-drill: 3 minutes hold at least 90 scans.
        session.run(&drill, Sinks::counters(&obs), g.draw(1u64..=60));
        let bytes = session.checkpoint(Sinks::counters(&obs));
        assert!(
            obs.snapshot()
                .histograms
                .iter()
                .any(|(name, _)| name.starts_with("immersion.ladder.")),
            "the checkpoint carries the immersion ladder's histograms"
        );
        let payload = rcs_kernel::open(DRILL_SNAPSHOT_KIND, &bytes).expect("pristine bytes open");

        for _ in 0..64 {
            // Corrupt the payload, then reseal it so the checksum passes
            // and the decoder itself sees the damage.
            let mut corrupt = payload.to_vec();
            if g.bool(0.25) {
                corrupt.truncate(g.index(corrupt.len()));
            } else {
                let at = g.index(corrupt.len());
                corrupt[at] ^= 1 << g.index(8);
            }
            let resealed = rcs_kernel::seal(DRILL_SNAPSHOT_KIND, &corrupt);
            let fresh = Registry::new();
            match DrillSession::resume(&drill, &resealed, Sinks::counters(&fresh)) {
                Err(err) => {
                    let _ = err.to_string();
                }
                // Whatever decoded must take the next observation: one
                // into each restored histogram's overflow bucket, at the
                // bounds it was restored with — and the next few scans.
                Ok(mut resumed) => {
                    for (name, h) in fresh.snapshot().histograms {
                        let past_last = h.bounds.last().map_or(0, |b| b.saturating_add(1));
                        fresh.record_histogram(&name, &h.bounds, past_last);
                    }
                    resumed.run(&drill, Sinks::counters(&fresh), 6);
                }
            }
        }
    });
}

/// Live counters, trace recorder and span sink.
struct Live {
    obs: Registry,
    trace: TraceRecorder,
    spans: SpanSink,
}

impl Live {
    fn with(trace: TraceRecorder, spans: SpanSink) -> Self {
        let obs = Registry::new();
        Self { obs, trace, spans }
    }

    fn new() -> Self {
        Self::with(TraceRecorder::new(), SpanSink::new())
    }

    /// Fresh sinks shaped like [`Live::busy`]'s: the trace capacity and
    /// span fan-out a resumed snapshot of them needs.
    fn busy_shaped() -> Self {
        Self::with(TraceRecorder::with_capacity(8), SpanSink::with_fanout(2))
    }

    /// Sinks that exercise every part of a sealed sink state: counters,
    /// a histogram, a decimated trace channel, and a span tree with a
    /// closed elision summary whose open stack holds all three frame
    /// kinds (a span, one elided past the fan-out cap, and one
    /// suppressed beneath it).
    fn busy() -> Self {
        let live = Self::busy_shaped();
        let (obs, spans) = (&live.obs, &live.spans);
        obs.add("kernel.pinned.items", 41);
        obs.record_histogram("kernel.pinned.sizes", &[2, 4, 8], 5);
        let ch = live
            .trace
            .channel("kernel.pinned.temp", ChannelKind::Temperature);
        for i in 0..37 {
            live.trace
                .record(ch, f64::from(i) * 0.5, 20.0 + f64::from(i));
        }
        spans.enter("session", obs);
        for _ in 0..3 {
            spans.enter("step", obs);
            obs.work("kernel.pinned.work", 2);
            spans.exit(obs);
        }
        spans.enter("step", obs);
        spans.enter("inner", obs);
        live
    }

    fn sinks(&self) -> Sinks<'_> {
        Sinks {
            obs: &self.obs,
            trace: &self.trace,
            spans: &self.spans,
        }
    }
}

/// FNV-1a digest of sealed snapshot bytes.
fn digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    bytes.iter().for_each(|&b| h.write_u8(b));
    h.finish()
}

#[test]
fn sealed_bytes_of_each_kind_match_their_pinned_digests() {
    // One fixed scenario per kind, digests captured before the layouts
    // moved onto the symmetric codec. A layout change must bump
    // FORMAT_VERSION and re-pin all four.
    assert_eq!(rcs_kernel::FORMAT_VERSION, 5);

    // a two-node chain under busy sinks, 37 steps in
    let mut net = ThermalNetwork::new();
    let amb = net.add_boundary("amb", Celsius::new(20.0));
    let a = net.add_node_with_capacitance("a", 40.0);
    let b = net.add_node_with_capacitance("b", 90.0);
    let r = ThermalResistance::from_kelvin_per_watt;
    for (x, y, k_per_w) in [(a, amb, 0.8), (a, b, 0.3), (b, amb, 1.1)] {
        net.connect(x, y, r(k_per_w)).expect("distinct nodes");
    }
    net.add_heat(a, Power::from_watts(60.0))
        .expect("internal node");
    net.add_heat(b, Power::from_watts(15.0))
        .expect("internal node");
    let initial = net.uniform_initial(Celsius::new(25.0));
    let (duration, step) = (Seconds::new(60.0), Seconds::new(0.5));
    let mut transient = TransientSession::new(&net, &initial, duration, step).expect("valid");
    transient.run(&net, 37);
    let transient = transient.checkpoint(Live::busy().sinks());

    // SKAT warming up for 300 s at 5 s steps, 20 steps in
    let live = Live::new();
    let (duration, step) = (Seconds::new(300.0), Seconds::new(5.0));
    let mut warmup = WarmupSession::new(&ImmersionModel::skat(), duration, step, live.sinks())
        .expect("model warms up");
    warmup.run(20);
    let warmup = warmup.checkpoint(live.sinks());

    // inside an open span, scan 157 of a fouling drill: after the third
    // seeded relinearization of one regime, so the linearization, its
    // key and a full seed history are all present
    let fouling = FaultKind::ExchangerFouling {
        rate_k_per_w_per_hour: 0.002,
    };
    let timeline = FaultTimeline::new().with_event(Seconds::minutes(1.0), fouling);
    let drill = FaultDrill::skat("fouling", timeline, Seconds::minutes(20.0));
    let live = Live::new();
    live.spans.enter("drill", &live.obs);
    let rng = Rng::seed_from_u64(7);
    let mut session = DrillSession::new(&drill, rng, true, live.sinks()).expect("baseline");
    session.run(&drill, live.sinks(), 157);
    let drill = session.checkpoint(live.sinks());

    // 300 SKAT immersion trials over three years on 3 workers, two of
    // five chunks in
    let live = Live::new();
    let classes = risk::failure_classes(&CoolingArchitecture::Immersion(
        ImmersionBath::skat_default(),
    ));
    let mut mc = McSession::new(3.0, 300, 42, 3, live.sinks());
    mc.advance(&classes, live.sinks(), 2);
    let mc = mc.checkpoint(live.sinks());

    for (kind, bytes, pinned) in [
        ("thermal.transient", transient, 0xc0ae_41ed_3e26_b0d5_u64),
        ("core.warmup", warmup, 0x2e23_da8b_2f5a_1c7e),
        ("core.drill", drill, 0x812e_3133_8b54_45a3),
        ("cooling.mc", mc, 0x3b33_9315_c2b8_755f),
    ] {
        assert!(rcs_kernel::open(kind, &bytes).is_ok(), "{kind} opens");
        let got = digest(&bytes);
        assert_eq!(
            got,
            pinned,
            "{kind}: {} bytes, digest {got:#018x}",
            bytes.len()
        );
    }
}

#[test]
fn a_resumed_session_checkpoints_to_the_same_bytes() {
    // checkpoint → resume into fresh sinks → checkpoint must reproduce
    // the bytes: a field a layout writes but does not read back changes
    // the second checkpoint.
    check_cases("recheckpoint", 8, |g| {
        let (net, _nodes) = random_network(g);
        let initial = net.uniform_initial(Celsius::new(g.draw(10.0..40.0)));
        let (duration, step) = (
            Seconds::new(g.draw(1.0..60.0)),
            Seconds::new(g.draw(0.1..2.0)),
        );
        let mut transient = TransientSession::new(&net, &initial, duration, step).expect("valid");
        transient.run(&net, g.draw(0u64..=40));
        let bytes = transient.checkpoint(Live::busy().sinks());
        let live = Live::busy_shaped();
        let resumed = TransientSession::resume(&net, &bytes, live.sinks()).expect("opens");
        assert!(resumed.checkpoint(live.sinks()) == bytes, "transient");

        let model = ImmersionModel::skat_plus()
            .with_operating_point(OperatingPoint::at_utilization(g.draw(0.3..1.0)));
        let (live, step) = (Live::new(), Seconds::new(4.0));
        let mut warmup = WarmupSession::new(&model, Seconds::new(120.0), step, live.sinks())
            .expect("model warms up");
        warmup.run(g.draw(0u64..=35));
        let bytes = warmup.checkpoint(live.sinks());
        let live = Live::new();
        let resumed = WarmupSession::resume(&model, &bytes, live.sinks()).expect("opens");
        assert!(resumed.checkpoint(live.sinks()) == bytes, "warm-up");

        let duration = Seconds::minutes(g.draw(3.0..6.0));
        let drill = FaultDrill::skat_plus("recheckpoint", random_timeline(g, duration), duration);
        let (live, rng) = (Live::new(), Rng::seed_from_u64(g.draw(0u64..=u64::MAX - 1)));
        if let Ok(mut session) = DrillSession::new(&drill, rng, g.bool(0.7), live.sinks()) {
            session.run(&drill, live.sinks(), g.draw(0u64..=200));
            let bytes = session.checkpoint(live.sinks());
            let live = Live::new();
            let resumed = DrillSession::resume(&drill, &bytes, live.sinks()).expect("opens");
            assert!(resumed.checkpoint(live.sinks()) == bytes, "drill");
        }

        let classes = risk::failure_classes(&CoolingArchitecture::ColdPlate(
            ColdPlateLoop::per_chip_plates(g.draw(16usize..=128)),
        ));
        let (trials, threads) = (g.draw(65usize..=300), g.draw(1usize..=4));
        let (live, seed) = (Live::new(), g.draw(0u64..=u64::MAX - 1));
        let mut mc = McSession::new(g.draw(1.0..4.0), trials, seed, threads, live.sinks());
        mc.advance(
            &classes,
            live.sinks(),
            g.draw(0u64..=trials as u64 / 64 + 2),
        );
        let bytes = mc.checkpoint(live.sinks());
        let live = Live::new();
        let resumed = McSession::resume(&bytes, threads, live.sinks()).expect("opens");
        assert!(resumed.checkpoint(live.sinks()) == bytes, "mc");
    });
}
