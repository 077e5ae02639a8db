//! The golden-channel determinism contract, end to end.
//!
//! The telemetry layer promises that golden counters and histograms are
//! a pure function of the work — not of the scheduler. These tests run
//! the two most parallel workloads in the repo (the E17 fault-drill
//! matrix and the Monte-Carlo availability study) at `RCS_THREADS`
//! equivalents of 1, 2 and 4 workers and demand **bit-identical**
//! snapshots, alongside the already-guaranteed bit-identical results.
//! The CI counter-diff job enforces the same property on the full
//! `exp_all` manifest across its thread-matrix legs.

use rcs_sim::cooling::{availability, risk, ColdPlateLoop, CoolingArchitecture};
use rcs_sim::core::experiments::e17_fault_drills;
use rcs_sim::obs::trace::{TraceRecorder, TraceSnapshot};
use rcs_sim::obs::Sinks;
use rcs_sim::obs::{profile, Registry, Snapshot};

fn drill_matrix_snapshot(threads: usize) -> (Vec<rcs_sim::core::DrillOutcome>, Snapshot) {
    let obs = Registry::new();
    let rows = e17_fault_drills::rows_with_threads(threads, Sinks::counters(&obs));
    (rows, obs.snapshot())
}

/// The full E17 drill matrix: outcomes *and* merged telemetry are
/// identical at 1, 2 and 4 workers.
#[test]
fn drill_matrix_telemetry_is_identical_at_1_2_and_4_threads() {
    let (rows_1, snap_1) = drill_matrix_snapshot(1);
    assert!(!snap_1.is_empty());
    for threads in [2, 4] {
        let (rows_n, snap_n) = drill_matrix_snapshot(threads);
        assert_eq!(rows_1, rows_n, "outcomes diverged at {threads} threads");
        assert_eq!(snap_1, snap_n, "telemetry diverged at {threads} threads");
    }
}

fn mc_snapshot(threads: usize) -> (availability::AvailabilityReport, Snapshot) {
    let classes = risk::failure_classes(&CoolingArchitecture::ColdPlate(
        ColdPlateLoop::per_chip_plates(96),
    ));
    let obs = Registry::new();
    let report = availability::monte_carlo_with_threads(
        &classes,
        5.0,
        2000,
        20180401,
        threads,
        Sinks::counters(&obs),
    );
    (report, obs.snapshot())
}

/// The Monte-Carlo availability engine: report *and* `mc.*` counters
/// are identical at 1, 2 and 4 workers. The cold-plate architecture is
/// the busiest one (most failure classes), so its event counters are
/// the most sensitive to a mis-merged shard.
#[test]
fn availability_mc_telemetry_is_identical_at_1_2_and_4_threads() {
    let (report_1, snap_1) = mc_snapshot(1);
    assert!(snap_1.counter("mc.events") > 0);
    for threads in [2, 4] {
        let (report_n, snap_n) = mc_snapshot(threads);
        assert_eq!(report_1, report_n, "report diverged at {threads} threads");
        assert_eq!(snap_1, snap_n, "telemetry diverged at {threads} threads");
    }
}

fn drill_matrix_trace(threads: usize) -> (TraceSnapshot, profile::ProfileNode) {
    let obs = Registry::new();
    let trace = TraceRecorder::new();
    let sinks = Sinks {
        obs: &obs,
        trace: &trace,
        ..Sinks::disabled()
    };
    let _ = e17_fault_drills::rows_with_threads(threads, sinks);
    (trace.snapshot(), profile::tree(&obs.snapshot()))
}

/// The traced E17 matrix: every per-cell channel (temperatures, flows,
/// utilization, alarms, actions, ladder residuals) and the merged
/// profile tree are bit-identical at 1, 2 and 4 workers.
#[test]
fn drill_matrix_trace_and_profile_are_identical_at_1_2_and_4_threads() {
    let (trace_1, profile_1) = drill_matrix_trace(1);
    assert!(!trace_1.is_empty());
    // one channel set per matrix cell: the SKAT nominal cell is there
    assert!(trace_1.channel("SKAT/nominal/drill.t_chip").is_some());
    assert!(profile_1.total > 0, "profile tree records drill work");
    for threads in [2, 4] {
        let (trace_n, profile_n) = drill_matrix_trace(threads);
        assert_eq!(trace_1, trace_n, "trace diverged at {threads} threads");
        assert_eq!(
            profile_1, profile_n,
            "profile diverged at {threads} threads"
        );
    }
}

fn mc_trace(threads: usize) -> (TraceSnapshot, profile::ProfileNode) {
    let classes = risk::failure_classes(&CoolingArchitecture::ColdPlate(
        ColdPlateLoop::per_chip_plates(96),
    ));
    let obs = Registry::new();
    let trace = TraceRecorder::new();
    let sinks = Sinks {
        obs: &obs,
        trace: &trace,
        ..Sinks::disabled()
    };
    let _ = availability::monte_carlo_with_threads(&classes, 5.0, 2000, 20180401, threads, sinks);
    (trace.snapshot(), profile::tree(&obs.snapshot()))
}

/// The traced Monte-Carlo study: the decimated per-trial availability
/// series (merged in chunk order) and the profile tree are bit-identical
/// at 1, 2 and 4 workers.
#[test]
fn availability_mc_trace_is_identical_at_1_2_and_4_threads() {
    let (trace_1, profile_1) = mc_trace(1);
    let channel = trace_1
        .channel("mc.availability")
        .expect("per-trial channel recorded");
    assert_eq!(channel.pushed, 2000, "every trial pushed");
    assert!(!channel.samples.is_empty());
    for threads in [2, 4] {
        let (trace_n, profile_n) = mc_trace(threads);
        assert_eq!(trace_1, trace_n, "trace diverged at {threads} threads");
        assert_eq!(
            profile_1, profile_n,
            "profile diverged at {threads} threads"
        );
    }
}
