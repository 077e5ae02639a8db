//! End-to-end regression gate for `obs_report`: a real workload's
//! manifest + trace NDJSON round-trips through the parser, an identical
//! pair diffs clean (exit code 0), a diff that compares nothing fails,
//! and injected regressions — a counter drift, a profile drift, a trace
//! drift — each flip the exit code to nonzero with a finding naming the
//! channel.

use rcs_sim::cooling::faults::{FaultKind, FaultTimeline};
use rcs_sim::core::FaultDrill;
use rcs_sim::numeric::rng::Rng;
use rcs_sim::obs::report::{self, DiffOptions};
use rcs_sim::obs::trace::{self, TraceRecorder};
use rcs_sim::obs::Sinks;
use rcs_sim::obs::{manifest, Registry};
use rcs_sim::units::Seconds;

/// One NDJSON stream exactly as `finish_run` writes it when
/// `RCS_OBS_MANIFEST` and `RCS_OBS_TRACE` point at the same file:
/// manifest lines first, trace lines appended.
fn workload_ndjson(seed: u64) -> String {
    let timeline =
        FaultTimeline::new().with_event(Seconds::minutes(2.0), FaultKind::PumpSeizure { pump: 0 });
    let drill = FaultDrill::skat("pump seizure", timeline, Seconds::minutes(8.0));
    let obs = Registry::new();
    let recorder = TraceRecorder::new();
    let _ = drill.run(
        &mut Rng::seed_from_u64(seed),
        Sinks {
            obs: &obs,
            trace: &recorder,
            ..Sinks::disabled()
        },
    );
    let meta = manifest::RunMeta::new("obs_report_test", Some(seed), 1);
    let mut text = manifest::render(&meta, &obs);
    text.push_str(&trace::render_ndjson(&recorder.snapshot()));
    text
}

#[test]
fn parser_ingests_a_real_manifest_with_traces_and_profiles() {
    let docs = report::parse_ndjson(&workload_ndjson(7)).expect("parses");
    assert_eq!(docs.len(), 1);
    let doc = &docs[0];
    assert_eq!(doc.experiment, "obs_report_test");
    assert_eq!(doc.seed, Some(7));
    assert!(doc.counters.contains_key("drill.runs"));
    assert!(doc.counters.contains_key("profile.drill.scans"));
    assert!(doc.traces.contains_key("drill.t_chip"));
    let profile = doc.profile();
    assert!(profile.total > 0, "work accounting present: {profile:?}");
}

#[test]
fn identical_runs_diff_clean_with_exit_code_zero() {
    let a = report::parse_ndjson(&workload_ndjson(7)).unwrap();
    let b = report::parse_ndjson(&workload_ndjson(7)).unwrap();
    let diff = report::diff_docs(&a, &b, &DiffOptions::default());
    assert!(!diff.has_regressions(), "{}", diff.render());
    assert_eq!(diff.exit_code(), 0);
    assert!(diff.compared > 0);
}

#[test]
fn a_diff_that_compares_nothing_fails() {
    // Two empty files parse to no run documents at all.
    let none = report::parse_ndjson("").unwrap();
    for diff in [
        report::diff_docs(&none, &none, &DiffOptions::default()),
        report::diff_spans_docs(&none, &none, &DiffOptions::default()),
    ] {
        assert_eq!(diff.compared, 0);
        assert!(!diff.has_regressions());
        assert_ne!(diff.exit_code(), 0);
        assert!(diff.render().starts_with("FAIL: 0 channels compared"));
    }
    // Runs with a header and no counters give a profile-only diff
    // nothing to compare.
    let meta = manifest::RunMeta::new("obs_report_test", Some(7), 1);
    let header_only = report::parse_ndjson(&manifest::render(&meta, &Registry::new())).unwrap();
    assert_eq!(header_only.len(), 1);
    let opts = DiffOptions {
        profile_only: true,
        ..DiffOptions::default()
    };
    let diff = report::diff_docs(&header_only, &header_only, &opts);
    assert_eq!(diff.compared, 0);
    assert_ne!(diff.exit_code(), 0, "{}", diff.render());
}

#[test]
fn different_seeds_are_caught_as_regressions() {
    let a = report::parse_ndjson(&workload_ndjson(7)).unwrap();
    let b = report::parse_ndjson(&workload_ndjson(8)).unwrap();
    let diff = report::diff_docs(&a, &b, &DiffOptions::default());
    assert!(diff.has_regressions());
    assert_ne!(diff.exit_code(), 0);
}

#[test]
fn an_injected_counter_drift_flips_the_exit_code() {
    let a = report::parse_ndjson(&workload_ndjson(7)).unwrap();
    let mut b = report::parse_ndjson(&workload_ndjson(7)).unwrap();
    *b[0].counters.get_mut("drill.steps").unwrap() += 1;
    let diff = report::diff_docs(&a, &b, &DiffOptions::default());
    assert_ne!(diff.exit_code(), 0);
    assert!(
        diff.findings.iter().any(|f| f.name == "drill.steps"),
        "{}",
        diff.render()
    );
}

#[test]
fn an_injected_profile_drift_is_caught_in_profile_only_mode() {
    let a = report::parse_ndjson(&workload_ndjson(7)).unwrap();
    let mut b = report::parse_ndjson(&workload_ndjson(7)).unwrap();
    *b[0].counters.get_mut("profile.drill.scans").unwrap() += 10;
    // profile-only mode sees it...
    let opts = DiffOptions {
        profile_only: true,
        ..DiffOptions::default()
    };
    let diff = report::diff_docs(&a, &b, &opts);
    assert_ne!(diff.exit_code(), 0);
    assert!(diff.findings.iter().all(|f| f.name.starts_with("profile.")));
    // ...and an unrelated non-profile drift would not trip that mode
    let mut c = report::parse_ndjson(&workload_ndjson(7)).unwrap();
    *c[0].counters.get_mut("drill.steps").unwrap() += 1;
    let diff = report::diff_docs(&a, &c, &opts);
    assert_eq!(diff.exit_code(), 0, "{}", diff.render());
}

#[test]
fn an_injected_trace_drift_flips_the_exit_code() {
    let a = report::parse_ndjson(&workload_ndjson(7)).unwrap();
    let mut b = report::parse_ndjson(&workload_ndjson(7)).unwrap();
    let t = b[0].traces.get_mut("drill.t_chip").unwrap();
    let last = t.samples.last_mut().unwrap();
    last.1 += 0.25;
    let diff = report::diff_docs(&a, &b, &DiffOptions::default());
    assert_ne!(diff.exit_code(), 0);
    assert!(
        diff.findings.iter().any(|f| f.name == "drill.t_chip"),
        "{}",
        diff.render()
    );
}

#[test]
fn counters_past_2_pow_53_are_compared_exactly() {
    // 2^53 and 2^53 + 1 are the same f64: a parser or diff that routes
    // counters through floats calls them equal.
    let manifest = |value: u64| {
        format!(
            "{{\"type\":\"run\",\"experiment\":\"big\",\"seed\":null,\"threads\":1,\"model_version\":\"0\"}}\n\
             {{\"type\":\"counter\",\"name\":\"mc.events\",\"value\":{value}}}\n"
        )
    };
    let a = report::parse_ndjson(&manifest(1 << 53)).unwrap();
    let b = report::parse_ndjson(&manifest((1 << 53) + 1)).unwrap();
    assert_eq!(b[0].counters["mc.events"], 9_007_199_254_740_993);
    let diff = report::diff_docs(&a, &b, &DiffOptions::default());
    assert_ne!(diff.exit_code(), 0, "{}", diff.render());
    assert!(diff.findings.iter().any(|f| f.name == "mc.events"));
}

#[test]
fn tolerance_bands_forgive_small_float_drift_but_not_large() {
    let a = report::parse_ndjson(&workload_ndjson(7)).unwrap();
    let mut b = report::parse_ndjson(&workload_ndjson(7)).unwrap();
    let t = b[0].traces.get_mut("drill.t_chip").unwrap();
    for s in &mut t.samples {
        s.1 *= 1.0 + 1e-9;
    }
    let strict = report::diff_docs(&a, &b, &DiffOptions::default());
    assert_ne!(strict.exit_code(), 0, "exact mode must catch 1e-9 drift");
    let loose = DiffOptions {
        tolerances: vec![("drill.t_".to_owned(), 1e-6)],
        ..DiffOptions::default()
    };
    let diff = report::diff_docs(&a, &b, &loose);
    assert_eq!(diff.exit_code(), 0, "{}", diff.render());
}
