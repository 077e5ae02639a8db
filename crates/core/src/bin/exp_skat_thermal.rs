//! Prints the E5/F2 SKAT thermal experiment tables (see DESIGN.md) and
//! emits an NDJSON run manifest (`RCS_OBS_MANIFEST` file, else stderr)
//! carrying the steady-solve and warm-up telemetry, plus the warm-up
//! temperature trace when `RCS_OBS_TRACE` names a file and the golden
//! span tree when `RCS_OBS_SPANS` names a file.

use rcs_core::experiments::{self, e05_skat_thermal};
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
    let tables = e05_skat_thermal::run(sinks);
    experiments::finish_run("e05_skat_thermal", None, &tables, sinks);
}
