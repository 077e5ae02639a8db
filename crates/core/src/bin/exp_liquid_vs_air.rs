//! Prints the E4 liquid-vs-air experiment tables (see DESIGN.md) and emits an NDJSON run
//! manifest (`RCS_OBS_MANIFEST` file, else stderr).

use rcs_core::experiments::{self, e04_liquid_vs_air};
use rcs_obs::{Registry, Sinks};

fn main() {
    let obs = Registry::new();
    let tables = e04_liquid_vs_air::run();
    experiments::finish_run("e04_liquid_vs_air", None, &tables, Sinks::counters(&obs));
}
