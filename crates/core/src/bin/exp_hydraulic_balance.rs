//! Prints the E8/F5 hydraulic-balancing experiment tables (see
//! DESIGN.md) and emits an NDJSON run manifest (`RCS_OBS_MANIFEST`
//! file, else stderr) carrying the manifold-solve telemetry, plus the
//! per-loop flow trace when `RCS_OBS_TRACE` names a file.

use rcs_core::experiments::{self, e08_hydraulic_balance};
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
    let tables = e08_hydraulic_balance::run(sinks);
    experiments::finish_run("e08_hydraulic_balance", None, &tables, sinks);
}
