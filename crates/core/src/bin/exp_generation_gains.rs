//! Prints the E6 generation-gain experiment tables (see DESIGN.md) and emits an NDJSON run
//! manifest (`RCS_OBS_MANIFEST` file, else stderr).

use rcs_core::experiments::{self, e06_generation_gains};
use rcs_obs::{Registry, Sinks};

fn main() {
    let obs = Registry::new();
    let tables = e06_generation_gains::run();
    experiments::finish_run("e06_generation_gains", None, &tables, Sinks::counters(&obs));
}
