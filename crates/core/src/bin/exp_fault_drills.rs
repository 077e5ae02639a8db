//! Prints the E17 fault-drill tables (see DESIGN.md) and emits an
//! NDJSON run manifest (`RCS_OBS_MANIFEST` file, else stderr) carrying
//! the full `drill.*` defense telemetry of the robustness matrix, plus
//! the per-cell drill trajectories when `RCS_OBS_TRACE` names a file
//! and the per-cell golden span tree when `RCS_OBS_SPANS` names one.

use rcs_core::experiments::{self, e17_fault_drills};
use rcs_obs::span::SpanSink;
use rcs_obs::trace::TraceRecorder;
use rcs_obs::{Registry, Sinks};

fn main() {
    let obs = Registry::new();
    let trace = TraceRecorder::from_env();
    let spans = SpanSink::from_env();
    let sinks = Sinks {
        obs: &obs,
        trace: &trace,
        spans: &spans,
    };
    let tables = e17_fault_drills::run(sinks);
    experiments::finish_run(
        "e17_fault_drills",
        Some(e17_fault_drills::SEED),
        &tables,
        sinks,
    );
}
