//! Prints the F1 design-figure experiment tables (see DESIGN.md) and emits an NDJSON run
//! manifest (`RCS_OBS_MANIFEST` file, else stderr).

use rcs_core::experiments::{self, f01_design_figures};
use rcs_obs::{Registry, Sinks};

fn main() {
    let obs = Registry::new();
    let tables = f01_design_figures::run();
    experiments::finish_run("f01_design_figures", None, &tables, Sinks::counters(&obs));
}
