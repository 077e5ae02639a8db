//! Prints the E18 design-query-service tables (see DESIGN.md) and emits
//! an NDJSON run manifest (`RCS_OBS_MANIFEST` file, else stderr) whose
//! `query.*` golden counters and `profile.query.*` work mirrors pin the
//! cache hit/miss/eviction schedule of the experiment. When
//! `RCS_OBS_SPANS` names a file the per-request golden span tree is
//! appended to it (NDJSON, or a Chrome trace-event document for a
//! `.json` path).

use rcs_obs::span::SpanSink;
use rcs_obs::{Registry, Sinks};
use rcs_query::e18_query_service;

fn main() {
    let obs = Registry::new();
    let spans = SpanSink::from_env();
    let tables = e18_query_service::run(Sinks {
        obs: &obs,
        spans: &spans,
        ..Sinks::disabled()
    });
    rcs_core::experiments::finish_run(
        "e18_query_service",
        Some(e18_query_service::SEED),
        &tables,
        Sinks::counters(&obs),
    );
    rcs_obs::span::emit(&spans.snapshot());
}
