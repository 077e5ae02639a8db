//! NDJSON run manifests.
//!
//! Every experiment binary emits one manifest per run: a `run` header
//! line (experiment name, seed, thread count, model version), one line
//! per golden counter and histogram, then the non-golden `note` lines. One JSON object per line, keys in a fixed order, so
//! the golden portion of two manifests can be compared with `grep` +
//! `diff` — which is exactly what the CI counter-diff job does between
//! its `RCS_THREADS=1` and `RCS_THREADS=4` legs.
//!
//! The manifest goes to the file named by the `RCS_OBS_MANIFEST`
//! environment variable when set, otherwise to **stderr** — never to
//! stdout, whose bytes are diffed by the experiment-determinism CI jobs
//! and must not carry the (legitimately thread-dependent) run header.

use std::fmt::Write as _;

use crate::Registry;

/// Identity of one run, rendered into the manifest's `run` header line.
#[derive(Debug, Clone)]
pub struct RunMeta {
    /// Experiment or binary name, e.g. `"exp_all"` or `"e17_fault_drills"`.
    pub experiment: String,
    /// The top-level RNG seed, if the run is seeded.
    pub seed: Option<u64>,
    /// Worker threads the run used (`RCS_THREADS` resolution).
    pub threads: usize,
    /// Model/schema version string, e.g. the crate version.
    pub model_version: String,
}

impl RunMeta {
    /// Builds a header for `experiment` at `threads` workers, with the
    /// workspace crate version as the model version.
    #[must_use]
    pub fn new(experiment: &str, seed: Option<u64>, threads: usize) -> Self {
        Self {
            experiment: experiment.to_owned(),
            seed,
            threads,
            model_version: env!("CARGO_PKG_VERSION").to_owned(),
        }
    }
}

/// Escapes `s` as the contents of a JSON string literal.
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the full NDJSON manifest: `run` header, golden `counter`,
/// `histogram` and `fhistogram` lines (sorted by name), then non-golden
/// `note` lines. Ends with a trailing newline.
#[must_use]
pub fn render(meta: &RunMeta, registry: &Registry) -> String {
    let mut out = String::new();
    let seed = meta
        .seed
        .map_or_else(|| "null".to_owned(), |s| s.to_string());
    let _ = writeln!(
        out,
        "{{\"type\":\"run\",\"experiment\":\"{}\",\"seed\":{},\"threads\":{},\"model_version\":\"{}\"}}",
        escape_json(&meta.experiment),
        seed,
        meta.threads,
        escape_json(&meta.model_version),
    );
    let snapshot = registry.snapshot();
    for (name, value) in &snapshot.counters {
        let _ = writeln!(
            out,
            "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{}}}",
            escape_json(name),
            value
        );
    }
    for (name, hist) in &snapshot.histograms {
        let bounds = join_u64(&hist.bounds);
        let counts = join_u64(&hist.counts);
        let _ = writeln!(
            out,
            "{{\"type\":\"histogram\",\"name\":\"{}\",\"bounds\":[{bounds}],\"counts\":[{counts}]}}",
            escape_json(name),
        );
    }
    for (name, hist) in &snapshot.fhistograms {
        // edges are asserted finite at record time, so plain Display is
        // valid JSON
        let edges = hist
            .edges
            .iter()
            .map(f64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let counts = join_u64(&hist.counts);
        let _ = writeln!(
            out,
            "{{\"type\":\"fhistogram\",\"name\":\"{}\",\"edges\":[{edges}],\"counts\":[{counts}]}}",
            escape_json(name),
        );
    }
    for (name, value) in registry.notes() {
        let _ = writeln!(
            out,
            "{{\"type\":\"note\",\"name\":\"{}\",\"value\":{value}}}",
            escape_json(&name),
        );
    }
    out
}

fn join_u64(values: &[u64]) -> String {
    values
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// Emits the manifest for a finished run: appends to the file named by
/// the `RCS_OBS_MANIFEST` environment variable when set (creating it),
/// otherwise writes to stderr. Stdout is deliberately never used — the
/// CI determinism jobs diff experiment stdout byte-for-byte, and the
/// run header legitimately differs across thread counts.
///
/// Both sinks receive the **fully rendered buffer in a single
/// `write_all`**: test binaries run concurrently, and one atomic write
/// per manifest keeps their stderr streams from interleaving partial
/// NDJSON lines.
pub fn emit(meta: &RunMeta, registry: &Registry) {
    use std::io::Write as _;
    let rendered = render(meta, registry);
    if let Ok(path) = std::env::var("RCS_OBS_MANIFEST") {
        if !path.is_empty() {
            let file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path);
            match file {
                Ok(mut f) => {
                    if f.write_all(rendered.as_bytes()).is_ok() {
                        return;
                    }
                }
                Err(err) => {
                    eprintln!("rcs-obs: cannot open manifest file {path}: {err}");
                }
            }
        }
    }
    // one write_all on the locked handle — never line-by-line macros,
    // which may split the buffer across multiple writes
    let _ = std::io::stderr().lock().write_all(rendered.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_emits_header_then_golden_then_non_golden() {
        let obs = Registry::new();
        obs.add("solver.calls", 2);
        obs.record_histogram("solver.rung", &[0, 1, 2], 0);
        obs.note("workers", 4);
        let meta = RunMeta {
            experiment: "exp_demo".to_owned(),
            seed: Some(42),
            threads: 4,
            model_version: "1.0.0".to_owned(),
        };
        let text = render(&meta, &obs);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "{\"type\":\"run\",\"experiment\":\"exp_demo\",\"seed\":42,\"threads\":4,\"model_version\":\"1.0.0\"}"
        );
        assert_eq!(
            lines[1],
            "{\"type\":\"counter\",\"name\":\"solver.calls\",\"value\":2}"
        );
        assert_eq!(
            lines[2],
            "{\"type\":\"histogram\",\"name\":\"solver.rung\",\"bounds\":[0,1,2],\"counts\":[1,0,0,0]}"
        );
        assert_eq!(
            lines[3],
            "{\"type\":\"note\",\"name\":\"workers\",\"value\":4}"
        );
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn float_histograms_render_edges_as_json_numbers() {
        let obs = Registry::new();
        obs.record_histogram_f64("solver.residual", &[0.000001, 0.5], 0.25);
        let meta = RunMeta::new("exp_fh", None, 1);
        let text = render(&meta, &obs);
        assert!(
            text.contains(
                "{\"type\":\"fhistogram\",\"name\":\"solver.residual\",\
                 \"edges\":[0.000001,0.5],\"counts\":[0,1,0]}"
            ),
            "{text}"
        );
    }

    #[test]
    fn unseeded_runs_render_null_seed() {
        let obs = Registry::new();
        let meta = RunMeta {
            experiment: "exp_unseeded".to_owned(),
            seed: None,
            threads: 1,
            model_version: "0.1.0".to_owned(),
        };
        let text = render(&meta, &obs);
        assert!(text.starts_with(
            "{\"type\":\"run\",\"experiment\":\"exp_unseeded\",\"seed\":null,\"threads\":1,"
        ));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        assert_eq!(escape_json("r\rt\t"), "r\\rt\\t");
    }

    #[test]
    fn hostile_counter_and_note_names_stay_one_line_each() {
        let obs = Registry::new();
        obs.inc("cell \"a,b\"\n/steps");
        obs.note("workers\r\"x\"", 2);
        let meta = RunMeta::new("exp_hostile", None, 1);
        let text = render(&meta, &obs);
        // every embedded newline was escaped: one JSON doc per line
        for line in text.lines() {
            let parsed = crate::report::parse_json(line).expect("valid JSON line");
            assert!(parsed.get("type").is_some(), "{line}");
        }
        assert_eq!(text.trim_end().lines().count(), 3, "{text}");
        let counter_line = text
            .lines()
            .find(|l| l.contains("\"type\":\"counter\""))
            .expect("counter line");
        let parsed = crate::report::parse_json(counter_line).expect("valid JSON");
        assert_eq!(
            parsed.get("name").and_then(crate::report::Json::as_str),
            Some("cell \"a,b\"\n/steps")
        );
    }

    #[test]
    fn golden_lines_match_across_registries_with_different_notes() {
        let meta = RunMeta::new("exp_x", Some(7), 1);
        let a = Registry::new();
        a.inc("c");
        a.note("workers", 1);
        let b = Registry::new();
        b.inc("c");
        b.note("workers", 4);
        let golden = |text: &str| {
            text.lines()
                .filter(|l| {
                    l.starts_with("{\"type\":\"counter\"")
                        || l.starts_with("{\"type\":\"histogram\"")
                })
                .map(str::to_owned)
                .collect::<Vec<_>>()
        };
        assert_eq!(golden(&render(&meta, &a)), golden(&render(&meta, &b)));
    }
}
