//! Prints the E19 chaos-drill tables (see DESIGN.md) and emits an
//! NDJSON run manifest (`RCS_OBS_MANIFEST` file, else stderr) whose
//! `resilience.*` golden counters and `profile.resilience.*` work
//! mirrors pin the drill's fault-injection and recovery schedule. When
//! `RCS_OBS_SPANS` names a file the per-cell golden span tree is
//! appended to it.

use rcs_chaos::e19_chaos_drill;
use rcs_obs::span::SpanSink;
use rcs_obs::{Registry, Sinks};

fn main() {
    // The drill injects worker panics on purpose; keep their hook
    // output out of the report.
    rcs_chaos::silence_expected_panics();
    let obs = Registry::new();
    let spans = SpanSink::from_env();
    let tables = e19_chaos_drill::run(Sinks {
        obs: &obs,
        spans: &spans,
        ..Sinks::disabled()
    });
    rcs_core::experiments::finish_run(
        "e19_chaos_drill",
        Some(e19_chaos_drill::SEED),
        &tables,
        Sinks::counters(&obs),
    );
    rcs_obs::span::emit(&spans.snapshot());
}
