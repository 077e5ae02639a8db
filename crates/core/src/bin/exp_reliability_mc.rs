//! Prints the E12 reliability Monte-Carlo experiment tables (see
//! DESIGN.md) and emits an NDJSON run manifest (`RCS_OBS_MANIFEST`
//! file, else stderr) carrying the `mc.*` trial/event telemetry, plus
//! the per-trial availability traces when `RCS_OBS_TRACE` names a file.

use rcs_core::experiments::{self, e12_reliability_mc};
use rcs_obs::trace::TraceRecorder;
use rcs_obs::{Registry, Sinks};

fn main() {
    let obs = Registry::new();
    let trace = TraceRecorder::from_env();
    let sinks = Sinks {
        obs: &obs,
        trace: &trace,
        ..Sinks::disabled()
    };
    let tables = e12_reliability_mc::run(sinks);
    experiments::finish_run(
        "e12_reliability_mc",
        Some(e12_reliability_mc::SEED),
        &tables,
        sinks,
    );
}
