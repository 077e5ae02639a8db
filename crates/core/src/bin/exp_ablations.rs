//! Prints the E13 ablation tables (see DESIGN.md) and emits an NDJSON run
//! manifest (`RCS_OBS_MANIFEST` file, else stderr).

use rcs_core::experiments::{self, e13_ablations};
use rcs_obs::{Registry, Sinks};

fn main() {
    let obs = Registry::new();
    let tables = e13_ablations::run();
    experiments::finish_run("e13_ablations", None, &tables, Sinks::counters(&obs));
}
