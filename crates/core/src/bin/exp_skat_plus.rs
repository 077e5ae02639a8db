//! Prints the E9/F3/F4 SKAT+ redesign experiment tables (see DESIGN.md) and emits an NDJSON run
//! manifest (`RCS_OBS_MANIFEST` file, else stderr).

use rcs_core::experiments::{self, e09_skat_plus};
use rcs_obs::{Registry, Sinks};

fn main() {
    let obs = Registry::new();
    let tables = e09_skat_plus::run();
    experiments::finish_run("e09_skat_plus", None, &tables, Sinks::counters(&obs));
}
