//! Prints the E16 fleet-simulation tables (see DESIGN.md) and emits an
//! NDJSON run manifest (`RCS_OBS_MANIFEST` file, else stderr).

use rcs_core::experiments::{self, e16_fleet};
use rcs_obs::{Registry, Sinks};

fn main() {
    let obs = Registry::new();
    let tables = e16_fleet::run();
    experiments::finish_run(
        "e16_fleet",
        Some(e16_fleet::SEED),
        &tables,
        Sinks::counters(&obs),
    );
}
