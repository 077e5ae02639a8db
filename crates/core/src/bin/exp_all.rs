//! Prints every experiment table of the reproduction (E1–E12, F1–F5)
//! and emits one NDJSON run manifest for the whole sweep
//! (`RCS_OBS_MANIFEST` file, else stderr) plus, when `RCS_OBS_TRACE`
//! names a file, the deterministic trace channels of the instrumented
//! experiments, and, when `RCS_OBS_SPANS` names a file, the golden
//! span tree of the sweep. The golden `counter`, `histogram`,
//! `fhistogram`, `trace` and `span` lines are bit-identical at every
//! `RCS_THREADS` setting — the CI `obs_report diff` and
//! `span-attribution` jobs hold us to that.

use rcs_core::experiments::{self, run_all};
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
    let tables = run_all(sinks);
    experiments::finish_run("exp_all", None, &tables, sinks);
}
