//! Prints the E1/E2 air-anchor experiment tables (see DESIGN.md) and emits an NDJSON run
//! manifest (`RCS_OBS_MANIFEST` file, else stderr).

use rcs_core::experiments::{self, e01_air_anchors};
use rcs_obs::{Registry, Sinks};

fn main() {
    let obs = Registry::new();
    let tables = e01_air_anchors::run();
    experiments::finish_run("e01_air_anchors", None, &tables, Sinks::counters(&obs));
}
