//! Prints the E10 TIM-washout experiment tables (see DESIGN.md) and emits an NDJSON run
//! manifest (`RCS_OBS_MANIFEST` file, else stderr).

use rcs_core::experiments::{self, e10_tim_washout};
use rcs_obs::{Registry, Sinks};

fn main() {
    let obs = Registry::new();
    let tables = e10_tim_washout::run();
    experiments::finish_run("e10_tim_washout", None, &tables, Sinks::counters(&obs));
}
