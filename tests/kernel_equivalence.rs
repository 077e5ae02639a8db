//! Differential proof that the kernel port changed nothing.
//!
//! PR 9 moved the four long-running loops (thermal transient, fault
//! drill, immersion warm-up, availability Monte-Carlo) onto the
//! `rcs-kernel` stepping clock with checkpoint/restore. The contract
//! was *zero* behavioral drift: every golden channel — counters,
//! histogram buckets, float-histogram buckets — must still match the
//! profile goldens committed **before** the port, bitwise, at every
//! worker count.
//!
//! These tests re-run the five profiled experiments in-process and
//! compare the full golden-channel state against the committed
//! `goldens/exp_*_profile.ndjson` files (parsed with
//! [`rcs_sim::obs::report::parse_ndjson`], the same reader the CI
//! `obs_report diff` gate uses). E17 and E19 take an explicit worker
//! count and run at 1, 2 and 4 workers in one process; the
//! ambient-threaded experiments get their matrix from the CI
//! `RCS_THREADS` legs, which run this whole suite at 1 and 4 workers.
//!
//! If one of these tests fails, the kernel port (or a later change to a
//! ported loop) drifted from the pre-port behavior — fix the loop, do
//! **not** re-pin the golden.

use std::collections::BTreeMap;

use rcs_sim::obs::report::{parse_ndjson, RunDoc};
use rcs_sim::obs::Sinks;
use rcs_sim::obs::{Registry, Snapshot};

/// Loads and parses one committed golden profile.
fn golden(name: &str) -> RunDoc {
    let path = format!("{}/goldens/{name}", env!("CARGO_MANIFEST_DIR"));
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("golden {path} unreadable: {e}"));
    let docs = parse_ndjson(&text).unwrap_or_else(|e| panic!("golden {path} unparsable: {e}"));
    assert_eq!(docs.len(), 1, "golden {path} should hold exactly one run");
    docs.into_iter().next().expect("checked above")
}

/// Asserts every golden channel of `snap` equals the committed `doc`,
/// both ways — a missing channel is as much drift as a changed one.
fn assert_matches_golden(doc: &RunDoc, snap: &Snapshot, what: &str) {
    let counters: BTreeMap<String, u64> = snap.counters.iter().cloned().collect();
    assert_eq!(counters, doc.counters, "{what}: counters drifted");

    let histograms: BTreeMap<String, (Vec<u64>, Vec<u64>)> = snap
        .histograms
        .iter()
        .map(|(name, h)| (name.clone(), (h.bounds.clone(), h.counts.clone())))
        .collect();
    assert_eq!(histograms, doc.histograms, "{what}: histograms drifted");

    let fhistograms: BTreeMap<String, (Vec<f64>, Vec<u64>)> = snap
        .fhistograms
        .iter()
        .map(|(name, h)| (name.clone(), (h.edges.clone(), h.counts.clone())))
        .collect();
    assert_eq!(
        fhistograms, doc.fhistograms,
        "{what}: float histograms drifted"
    );
}

/// E5 (SKAT thermal tables): warm-up runs on the kernel's
/// `WarmupSession` / `TransientSession` now.
#[test]
fn e05_skat_thermal_matches_the_pre_port_golden() {
    use rcs_sim::core::experiments::e05_skat_thermal;
    let doc = golden("exp_skat_thermal_profile.ndjson");
    assert_eq!(doc.experiment, "e05_skat_thermal");
    let obs = Registry::new();
    let tables = e05_skat_thermal::run(Sinks::counters(&obs));
    // The golden was captured through `finish_run`, which counts the
    // rendered tables; mirror that.
    obs.add("experiments.tables", tables.len() as u64);
    assert_matches_golden(&doc, &obs.snapshot(), "e05");
}

/// E8 (hydraulic balance): exercises the warm-start solver whose seeds
/// are part of the kernel snapshot surface.
#[test]
fn e08_hydraulic_balance_matches_the_pre_port_golden() {
    use rcs_sim::core::experiments::e08_hydraulic_balance;
    let doc = golden("exp_hydraulic_balance_profile.ndjson");
    assert_eq!(doc.experiment, "e08_hydraulic_balance");
    let obs = Registry::new();
    let tables = e08_hydraulic_balance::run(Sinks::counters(&obs));
    obs.add("experiments.tables", tables.len() as u64);
    assert_matches_golden(&doc, &obs.snapshot(), "e08");
}

/// E12 (reliability Monte-Carlo): runs on the chunk-clocked
/// `McSession` now.
#[test]
fn e12_reliability_mc_matches_the_pre_port_golden() {
    use rcs_sim::core::experiments::e12_reliability_mc;
    let doc = golden("exp_reliability_mc_profile.ndjson");
    assert_eq!(doc.experiment, "e12_reliability_mc");
    let obs = Registry::new();
    let tables = e12_reliability_mc::run(Sinks::counters(&obs));
    obs.add("experiments.tables", tables.len() as u64);
    assert_matches_golden(&doc, &obs.snapshot(), "e12");
}

/// E17 (fault-drill matrix): every cell steps a kernel `DrillSession`;
/// the merged telemetry must match the pre-port golden at 1, 2 and 4
/// workers alike.
#[test]
fn e17_fault_drills_match_the_pre_port_golden_at_1_2_and_4_threads() {
    use rcs_sim::core::experiments::e17_fault_drills;
    let doc = golden("exp_fault_drills_profile.ndjson");
    assert_eq!(doc.experiment, "e17_fault_drills");
    for threads in [1usize, 2, 4] {
        let obs = Registry::new();
        let rows = e17_fault_drills::rows_with_threads(threads, Sinks::counters(&obs));
        assert!(!rows.is_empty());
        // The golden's run rendered the matrix as one table.
        obs.add("experiments.tables", 1);
        assert_matches_golden(&doc, &obs.snapshot(), &format!("e17 at {threads} threads"));
    }
}

/// E19 (chaos drill): the resilient query batches under fault injection
/// must match the pre-port golden at 1, 2 and 4 workers alike.
#[test]
fn e19_chaos_drill_matches_the_pre_port_golden_at_1_2_and_4_threads() {
    use rcs_sim::chaos;
    let doc = golden("exp_chaos_drill_profile.ndjson");
    assert_eq!(doc.experiment, "e19_chaos_drill");
    // The drill injects panics into workers on purpose; silence the
    // default hook's stderr spray exactly like the exp binary does.
    chaos::silence_expected_panics();
    for threads in [1usize, 2, 4] {
        let obs = Registry::new();
        let tables = chaos::e19_chaos_drill::run_with_threads(threads, Sinks::counters(&obs));
        obs.add("experiments.tables", tables.len() as u64);
        assert_matches_golden(&doc, &obs.snapshot(), &format!("e19 at {threads} threads"));
    }
}
