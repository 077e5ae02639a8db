//! Counter-asserting regression tests for the telemetry layer.
//!
//! Each test pins a behavioural claim about the stack to the golden
//! counters of `rcs-obs`: not just "the solver converged" but "the
//! solver converged *without ever leaving rung 0*", not just "the drill
//! stayed clean" but "the plausibility filter rejected exactly the lies
//! we scripted". A regression that changes how hard the system works —
//! extra fallback rungs, surprise relinearizations, silently skipped
//! Monte-Carlo chunks — now fails a test even when the final floats
//! still look right.

use rcs_sim::cooling::faults::{FaultKind, FaultTimeline};
use rcs_sim::cooling::{availability, risk, CoolingArchitecture, ImmersionBath};
use rcs_sim::core::experiments::{e05_skat_thermal, e17_fault_drills};
use rcs_sim::core::{FaultDrill, ImmersionModel};
use rcs_sim::numeric::rng::Rng;
use rcs_sim::obs::Sinks;
use rcs_sim::obs::{manifest, Registry};
use rcs_sim::units::Seconds;

/// E5's headline telemetry claim: the SKAT reproduction converges with
/// **zero fallback-rung escalations** — every hydraulic solve succeeds
/// on the default (rung-0) solver settings.
#[test]
fn e5_runs_with_zero_fallback_rung_escalations() {
    let obs = Registry::new();
    let tables = e05_skat_thermal::run(Sinks::counters(&obs));
    assert!(!tables.is_empty());
    let snap = obs.snapshot();
    assert_eq!(snap.counter("hydraulics.ladder.escalations"), 0);
    assert_eq!(snap.counter("hydraulics.ladder.unsolvable"), 0);
    // both steady solves (the direct one and the warm-up's) converged
    // on the immersion ladder's first rung
    assert_eq!(snap.counter("immersion.ladder.converged"), 2);
    assert_eq!(snap.counter("immersion.ladder.escalations"), 0);
    let rungs = snap
        .histogram("hydraulics.ladder.rung")
        .expect("rung histogram recorded");
    // every ladder call landed in the rung-0 bucket
    assert_eq!(rungs.counts[0], snap.counter("hydraulics.ladder.calls"));
    assert_eq!(rungs.total(), snap.counter("hydraulics.ladder.calls"));
}

/// The steady immersion solve reports its own effort honestly: the
/// outer-iteration count in the report equals the number of circulation
/// (hydraulic ladder) solves the registry saw.
#[test]
fn immersion_iterations_match_circulation_solve_count() {
    let obs = Registry::new();
    let report = ImmersionModel::skat()
        .solve_with_ladder(&ImmersionModel::LADDER, Sinks::counters(&obs))
        .expect("SKAT converges");
    let snap = obs.snapshot();
    assert_eq!(
        snap.counter("immersion.circulation.calls"),
        report.iterations as u64
    );
    assert_eq!(
        snap.counter("immersion.circulation.calls"),
        snap.counter("hydraulics.ladder.calls")
    );
    assert_eq!(snap.counter("immersion.ladder.escalations"), 0);
}

/// A nominal fault drill is telemetrically silent: zero rejections,
/// zero alarm transitions, zero protective actions — and exactly one
/// plant linearization, reused for all 300 scans.
#[test]
fn nominal_drill_telemetry_is_silent() {
    let drill = FaultDrill::skat("nominal", FaultTimeline::new(), Seconds::minutes(10.0));
    let obs = Registry::new();
    let outcome = drill.run(&mut Rng::seed_from_u64(7), Sinks::counters(&obs));
    assert!(outcome.clean());
    let snap = obs.snapshot();
    assert_eq!(snap.counter("drill.steps"), 300);
    assert_eq!(snap.counter("drill.relinearizations"), 1);
    assert_eq!(snap.counter("drill.plausibility.rejections"), 0);
    assert_eq!(snap.counter("drill.alarm_transitions"), 0);
    assert_eq!(snap.counter("drill.shutdowns"), 0);
    assert_eq!(snap.counter("drill.violation_steps"), 0);
}

/// A pump seizure exercises the protective ladder: the plant is
/// relinearized, the alarm fires (one silent→alarming transition), the
/// supervisor trips its emergency stop once, and the hardware ceiling
/// is never crossed.
#[test]
fn pump_seizure_drill_records_the_protective_sequence() {
    let timeline =
        FaultTimeline::new().with_event(Seconds::minutes(2.0), FaultKind::PumpSeizure { pump: 0 });
    let drill = FaultDrill::skat("pump seizure", timeline, Seconds::minutes(20.0));
    let obs = Registry::new();
    let outcome = drill.run(&mut Rng::seed_from_u64(7), Sinks::counters(&obs));
    assert!(outcome.shut_down);
    let snap = obs.snapshot();
    assert!(snap.counter("drill.relinearizations") >= 2);
    assert!(snap.counter("drill.alarm_transitions") >= 1);
    assert_eq!(snap.counter("drill.shutdowns"), 1);
    assert_eq!(snap.counter("drill.violation_steps"), 0);
    assert_eq!(snap.counter("drill.solver_failures"), 0);
}

/// The Monte-Carlo availability counters are the exact integer
/// numerators of the float report: `mc.events / (trials × horizon)`
/// reproduces `mean_events_per_year` to machine precision.
#[test]
fn monte_carlo_counters_are_exact_integer_numerators() {
    let classes = risk::failure_classes(&CoolingArchitecture::Immersion(
        ImmersionBath::skat_default(),
    ));
    let obs = Registry::new();
    let report =
        availability::monte_carlo_with_threads(&classes, 5.0, 960, 42, 1, Sinks::counters(&obs));
    let snap = obs.snapshot();
    assert_eq!(snap.counter("mc.runs"), 1);
    assert_eq!(snap.counter("mc.trials"), 960);
    assert_eq!(snap.counter("mc.chunks"), 15);
    let events_per_year = snap.counter("mc.events") as f64 / (960.0 * 5.0);
    assert!(
        (events_per_year - report.mean_events_per_year).abs() < 1e-12,
        "counter numerator {events_per_year} vs report {}",
        report.mean_events_per_year
    );
}

/// The E17 matrix accounts for every cell: `drill.runs` equals the
/// matrix size, the supervised fleet never crosses the ceiling, and the
/// scripted sensor storms are visibly fought off in the counters.
#[test]
fn fault_drill_matrix_accounts_for_every_cell() {
    let obs = Registry::new();
    let rows = e17_fault_drills::rows_with_threads(1, Sinks::counters(&obs));
    let snap = obs.snapshot();
    assert_eq!(snap.counter("drill.runs"), rows.len() as u64);
    assert_eq!(snap.counter("drill.violation_steps"), 0);
    assert!(snap.counter("drill.plausibility.rejections") > 0);
    assert!(snap.counter("drill.plausibility.dropouts") > 0);
    assert!(snap.counter("drill.shutdowns") > 0);
}

/// The disabled sinks are observationally invisible: routing a solve
/// and a full fault drill through the `*_traced` entry points with
/// [`Registry::disabled`] + [`TraceRecorder::disabled`] bit-matches the
/// plain un-observed variants, and nothing is buffered anywhere. (The
/// companion `rcs-obs` `noalloc` test proves the same calls are also
/// allocation-free.)
#[test]
fn disabled_sinks_bit_match_the_unobserved_entry_points() {
    use rcs_sim::obs::trace::TraceRecorder;

    let model = ImmersionModel::skat();
    let plain = model.solve().expect("SKAT converges");
    let disabled = model
        .solve_with_ladder(&ImmersionModel::LADDER, Sinks::disabled())
        .expect("SKAT converges");
    assert_eq!(plain, disabled);

    let timeline =
        FaultTimeline::new().with_event(Seconds::minutes(2.0), FaultKind::PumpSeizure { pump: 0 });
    let drill = FaultDrill::skat("pump seizure", timeline, Seconds::minutes(20.0));
    let plain = drill.run(&mut Rng::seed_from_u64(7), Sinks::disabled());
    let traced = drill.run(&mut Rng::seed_from_u64(7), Sinks::disabled());
    assert_eq!(plain, traced);

    // the shared sinks buffered nothing while doing all of that
    assert!(Registry::disabled().snapshot().is_empty());
    assert!(TraceRecorder::disabled().snapshot().is_empty());
}

/// The NDJSON manifest is grep-stable: golden `counter`/`histogram`
/// lines are independent of the non-golden, scheduling-dependent notes,
/// and the run header carries seed and thread count.
#[test]
fn manifest_golden_lines_ignore_wall_clock() {
    let meta = manifest::RunMeta::new("telemetry_test", Some(99), 4);
    let a = Registry::new();
    let b = Registry::new();
    for (workers, obs) in [(1, &a), (4, &b)] {
        obs.inc("demo.calls");
        obs.record_histogram("demo.size", &[1, 2, 4], 3);
        obs.note("demo.workers", workers);
    }
    let golden = |text: &str| {
        text.lines()
            .filter(|l| {
                l.starts_with("{\"type\":\"counter\"") || l.starts_with("{\"type\":\"histogram\"")
            })
            .map(str::to_owned)
            .collect::<Vec<_>>()
    };
    assert_eq!(
        golden(&manifest::render(&meta, &a)),
        golden(&manifest::render(&meta, &b))
    );
    assert!(manifest::render(&meta, &a).starts_with(
        "{\"type\":\"run\",\"experiment\":\"telemetry_test\",\"seed\":99,\"threads\":4,"
    ));
}
