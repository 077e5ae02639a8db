//! Prints the E7 rack-petaflops experiment tables (see DESIGN.md) and emits an NDJSON run
//! manifest (`RCS_OBS_MANIFEST` file, else stderr).

use rcs_core::experiments::{self, e07_rack_pflops};
use rcs_obs::{Registry, Sinks};

fn main() {
    let obs = Registry::new();
    let tables = e07_rack_pflops::run();
    experiments::finish_run("e07_rack_pflops", None, &tables, Sinks::counters(&obs));
}
