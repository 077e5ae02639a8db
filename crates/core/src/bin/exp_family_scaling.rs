//! Prints the E3 family-scaling experiment tables (see DESIGN.md) and emits an NDJSON run
//! manifest (`RCS_OBS_MANIFEST` file, else stderr).

use rcs_core::experiments::{self, e03_family_scaling};
use rcs_obs::{Registry, Sinks};

fn main() {
    let obs = Registry::new();
    let tables = e03_family_scaling::run();
    experiments::finish_run("e03_family_scaling", None, &tables, Sinks::counters(&obs));
}
