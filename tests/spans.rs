//! The span-attribution contract, end to end: the golden span trees of
//! the instrumented experiments are bit-identical at every worker
//! count, a mid-run kernel checkpoint/restore reproduces the straight
//! run's tree bitwise, the committed `goldens/exp_*_spans.ndjson`
//! files pin each experiment's tree exactly, the Chrome trace export is
//! valid deterministic JSON with no wall-clock values, and
//! `obs_report`'s attribution rollup renders self/total work and a
//! critical path for every committed golden.

use rcs_sim::chaos::{self, e19_chaos_drill};
use rcs_sim::cooling::faults::{FaultKind, FaultTimeline};
use rcs_sim::core::experiments::{e05_skat_thermal, e17_fault_drills};
use rcs_sim::core::{DrillSession, FaultDrill};
use rcs_sim::numeric::rng::Rng;
use rcs_sim::obs::span::{self, SpanSink};
use rcs_sim::obs::trace::TraceRecorder;
use rcs_sim::obs::Sinks;
use rcs_sim::obs::{report, Registry};
use rcs_sim::query::e18_query_service;
use rcs_sim::units::Seconds;

fn golden(name: &str) -> String {
    let path = format!("{}/goldens/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn e17_spans(threads: usize) -> String {
    let obs = Registry::new();
    let spans = SpanSink::new();
    let _ = e17_fault_drills::rows_with_threads(
        threads,
        Sinks {
            obs: &obs,
            spans: &spans,
            ..Sinks::disabled()
        },
    );
    span::render_ndjson(&spans.snapshot())
}

fn e18_spans(threads: usize) -> String {
    let queries = e18_query_service::batch();
    let obs = Registry::new();
    let spans = SpanSink::new();
    let mut engine = rcs_sim::query::QueryEngine::new(e18_query_service::CAPACITY);
    for _ in 0..e18_query_service::ROUNDS {
        spans.enter("round", &obs);
        let _ = engine.run_batch(
            &queries,
            threads,
            Sinks {
                obs: &obs,
                spans: &spans,
                ..Sinks::disabled()
            },
        );
        spans.exit(&obs);
    }
    span::render_ndjson(&spans.snapshot())
}

fn e19_spans(threads: usize) -> String {
    chaos::silence_expected_panics();
    let obs = Registry::new();
    let spans = SpanSink::new();
    let _ = e19_chaos_drill::run_with_threads(
        threads,
        Sinks {
            obs: &obs,
            spans: &spans,
            ..Sinks::disabled()
        },
    );
    span::render_ndjson(&spans.snapshot())
}

#[test]
fn e17_span_tree_is_bit_identical_at_1_2_and_4_threads() {
    let serial = e17_spans(1);
    assert!(serial.contains("\"label\":\"SKAT/nominal\""), "{serial}");
    for threads in [2, 4] {
        assert_eq!(serial, e17_spans(threads), "threads = {threads}");
    }
}

#[test]
fn e18_span_tree_is_bit_identical_at_1_2_and_4_threads() {
    let serial = e18_spans(1);
    assert!(serial.contains("\"label\":\"query.batch\""), "{serial}");
    assert!(serial.contains("\"label\":\"req."), "{serial}");
    for threads in [2, 4] {
        assert_eq!(serial, e18_spans(threads), "threads = {threads}");
    }
}

#[test]
fn e19_span_tree_is_bit_identical_at_1_2_and_4_threads() {
    let serial = e19_spans(1);
    assert!(serial.contains("\"label\":\"tight.mixed\""), "{serial}");
    for threads in [2, 4] {
        assert_eq!(serial, e19_spans(threads), "threads = {threads}");
    }
}

#[test]
fn e05_span_tree_matches_the_committed_golden() {
    let obs = Registry::new();
    let spans = SpanSink::new();
    let _ = e05_skat_thermal::run(Sinks {
        obs: &obs,
        spans: &spans,
        ..Sinks::disabled()
    });
    assert_eq!(
        span::render_ndjson(&spans.snapshot()),
        golden("exp_skat_thermal_spans.ndjson")
    );
}

#[test]
fn e17_span_tree_matches_the_committed_golden() {
    assert_eq!(e17_spans(2), golden("exp_fault_drills_spans.ndjson"));
}

#[test]
fn e18_span_tree_matches_the_committed_golden() {
    // The golden is written by the `exp_query_service` binary, whose
    // rounds run under `round` spans at the ambient thread count — the
    // tree is thread-invariant, so any explicit count reproduces it.
    let obs = Registry::new();
    let spans = SpanSink::new();
    let _ = e18_query_service::run(Sinks {
        obs: &obs,
        spans: &spans,
        ..Sinks::disabled()
    });
    assert_eq!(
        span::render_ndjson(&spans.snapshot()),
        golden("exp_query_service_spans.ndjson")
    );
}

#[test]
fn e19_span_tree_matches_the_committed_golden() {
    assert_eq!(e19_spans(4), golden("exp_chaos_drill_spans.ndjson"));
}

#[test]
fn drill_checkpoint_restore_reproduces_the_straight_span_tree_bitwise() {
    let timeline =
        FaultTimeline::new().with_event(Seconds::minutes(2.0), FaultKind::PumpSeizure { pump: 0 });
    let drill = FaultDrill::skat("resume", timeline, Seconds::minutes(10.0));

    let run = |split_at: Option<u64>| -> String {
        let (obs, trace, spans) = (Registry::new(), TraceRecorder::new(), SpanSink::new());
        let sinks = Sinks {
            obs: &obs,
            trace: &trace,
            spans: &spans,
        };
        spans.enter("drill.session", &obs);
        let mut session = DrillSession::new(&drill, Rng::seed_from_u64(17), true, sinks)
            .expect("baseline solves");
        if let Some(k) = split_at {
            session.run(&drill, sinks, k);
            let bytes = session.checkpoint(sinks);
            // Fresh sinks: everything recorded so far must come back
            // from the snapshot alone, including the open span stack.
            let (obs, trace, spans) = (Registry::new(), TraceRecorder::new(), SpanSink::new());
            let sinks = Sinks {
                obs: &obs,
                trace: &trace,
                spans: &spans,
            };
            let mut session =
                DrillSession::resume(&drill, &bytes, sinks).expect("snapshot reopens");
            session.run(&drill, sinks, u64::MAX);
            let _ = session.finish(sinks);
            spans.exit(&obs);
            return span::render_ndjson(&spans.snapshot());
        }
        session.run(&drill, sinks, u64::MAX);
        let _ = session.finish(sinks);
        spans.exit(&obs);
        span::render_ndjson(&spans.snapshot())
    };

    let straight = run(None);
    assert!(
        straight.contains("\"label\":\"drill.session\""),
        "{straight}"
    );
    for split in [1, 90, 300] {
        assert_eq!(straight, run(Some(split)), "split at {split}");
    }
}

#[test]
fn chrome_export_is_valid_deterministic_json_without_wall_clock() {
    let render = || -> String {
        let obs = Registry::new();
        let spans = SpanSink::new();
        let _ = e18_query_service::run(Sinks {
            obs: &obs,
            spans: &spans,
            ..Sinks::disabled()
        });
        span::render_chrome(&spans.snapshot())
    };
    let doc = render();
    // Two runs are byte-identical: nothing in the export can carry a
    // wall-clock value.
    assert_eq!(doc, render());
    let parsed = report::parse_json(doc.trim_end()).expect("valid JSON document");
    let events = parsed
        .get("traceEvents")
        .expect("traceEvents array present");
    let report::Json::Arr(events) = events else {
        panic!("traceEvents is not an array");
    };
    assert!(!events.is_empty());
    for event in events {
        assert_eq!(
            event.get("ph").and_then(report::Json::as_str),
            Some("X"),
            "complete events only"
        );
        let ts = event.get("ts").and_then(report::Json::as_u64);
        let dur = event.get("dur").and_then(report::Json::as_u64);
        assert!(ts.is_some() && dur.is_some(), "work units are integers");
    }
    assert_eq!(
        parsed
            .get("otherData")
            .and_then(|o| o.get("clock"))
            .and_then(report::Json::as_str),
        Some("work-units")
    );
}

#[test]
fn attribution_renders_work_and_critical_path_for_every_committed_golden() {
    for name in [
        "exp_skat_thermal_spans.ndjson",
        "exp_fault_drills_spans.ndjson",
        "exp_query_service_spans.ndjson",
        "exp_chaos_drill_spans.ndjson",
    ] {
        let docs = report::parse_ndjson(&golden(name)).expect("golden parses");
        assert_eq!(docs.len(), 1, "{name}");
        assert!(!docs[0].spans.is_empty(), "{name} carries spans");
        let text = report::attribution(&docs, 10);
        assert!(text.contains("top self-work spans:"), "{name}: {text}");
        assert!(
            text.contains("critical path (heaviest descent):"),
            "{name}: {text}"
        );
        assert!(text.contains("work share by path:"), "{name}: {text}");
        assert!(!text.contains("no spans recorded"), "{name}");
    }
}

#[test]
fn attribution_diff_gates_injected_drift_on_a_committed_golden() {
    let base = golden("exp_query_service_spans.ndjson");
    let a = report::parse_ndjson(&base).expect("golden parses");
    assert!(!report::diff_spans_docs(&a, &a, &report::DiffOptions::default()).has_regressions());

    // Injected drift: the first span's total bumped by one work unit.
    let needle = "\"total\":";
    let idx = base.find(needle).expect("a span line with a total");
    let tail = &base[idx + needle.len()..];
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    let bumped: u64 = digits.parse::<u64>().expect("integer total") + 1;
    let drifted = base.replacen(
        &format!("{needle}{digits}"),
        &format!("{needle}{bumped}"),
        1,
    );
    let b = report::parse_ndjson(&drifted).expect("drifted golden parses");
    let diff = report::diff_spans_docs(&a, &b, &report::DiffOptions::default());
    assert!(diff.has_regressions());
    assert_eq!(diff.exit_code(), 1);
}
