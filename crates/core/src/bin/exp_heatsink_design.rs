//! Prints the E11 heat-sink design experiment tables (see DESIGN.md) and emits an NDJSON run
//! manifest (`RCS_OBS_MANIFEST` file, else stderr).

use rcs_core::experiments::{self, e11_heatsink_design};
use rcs_obs::{Registry, Sinks};

fn main() {
    let obs = Registry::new();
    let tables = e11_heatsink_design::run();
    experiments::finish_run("e11_heatsink_design", None, &tables, Sinks::counters(&obs));
}
