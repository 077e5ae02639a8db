//! Prints the E14 annual-energy tables (see DESIGN.md) and emits an NDJSON run
//! manifest (`RCS_OBS_MANIFEST` file, else stderr).

use rcs_core::experiments::{self, e14_energy};
use rcs_obs::{Registry, Sinks};

fn main() {
    let obs = Registry::new();
    let tables = e14_energy::run();
    experiments::finish_run("e14_energy", None, &tables, Sinks::counters(&obs));
}
