//! Prints the E15 serviceability tables (see DESIGN.md) and emits an NDJSON run
//! manifest (`RCS_OBS_MANIFEST` file, else stderr).

use rcs_core::experiments::{self, e15_maintenance};
use rcs_obs::{Registry, Sinks};

fn main() {
    let obs = Registry::new();
    let tables = e15_maintenance::run();
    experiments::finish_run("e15_maintenance", None, &tables, Sinks::counters(&obs));
}
