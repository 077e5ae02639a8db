//! `obs_report` — ingest NDJSON run manifests/traces/spans and either
//! summarize them for humans or diff two of them for machines.
//!
//! ```text
//! obs_report summary [--top <n>] <file> [<file>...]
//! obs_report diff [--profile-only] [--tol <prefix>=<rel>]... <baseline> <candidate>
//! obs_report attribution [--top <n>] <file> [<file>...]
//! obs_report attribution diff [--tol <prefix>=<rel>]... <baseline> <candidate>
//! ```
//!
//! `summary` prints run identity, counter/histogram/trace/span
//! inventories, the top-`n` counters and `profile.*` work leaves, the
//! profile tree, and per-trace statistics for every run document found
//! in the given files.
//!
//! `diff` compares the golden channels (counters, histograms, traces,
//! `profile.*` work accounting) of two manifest files, matching run
//! documents by experiment name. It exits 0 when every compared channel
//! matches (within the optional per-prefix relative tolerance bands)
//! and 1 on any drift, missing channel, or unmatched run — the CI
//! regression gate.
//!
//! `attribution` renders the span-tree rollup of each run: the top-`n`
//! self-work spans, the critical path (heaviest-total descent from the
//! heaviest root), and the per-path work-share table. `attribution
//! diff` is its machine gate: spans match by stable id, their golden
//! work figures compare within the per-path tolerance bands, and any
//! drift, missing span, or elision change exits 1.
//!
//! Exit codes: 0 when both diffs compared at least one channel and found
//! no drift; 1 on any drift, and also when nothing was compared (two
//! empty files, or `--profile-only` runs without `profile.*` counters),
//! because a gate that compared nothing has checked nothing; 2 on a
//! usage error or an unreadable or malformed file.

use std::process::ExitCode;

use rcs_obs::report::{self, DiffOptions, RunDoc};

fn usage() -> ! {
    eprintln!(
        "usage:\n  obs_report summary [--top <n>] <file> [<file>...]\n  obs_report diff \
         [--profile-only] [--tol <prefix>=<rel>]... <baseline> <candidate>\n  obs_report \
         attribution [--top <n>] <file> [<file>...]\n  obs_report attribution diff [--tol \
         <prefix>=<rel>]... <baseline> <candidate>"
    );
    std::process::exit(2);
}

fn load(path: &str) -> Vec<RunDoc> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(err) => {
            eprintln!("obs_report: cannot read {path}: {err}");
            std::process::exit(2);
        }
    };
    match report::parse_ndjson(&text) {
        Ok(docs) => docs,
        Err(err) => {
            eprintln!("obs_report: {path}: {err}");
            std::process::exit(2);
        }
    }
}

/// Parses `[--top <n>] <file>...` argument tails (shared by `summary`
/// and `attribution`).
fn parse_top_and_files(rest: &[String]) -> (usize, Vec<String>) {
    let mut top = 10usize;
    let mut files = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--top" => {
                let Some(spec) = it.next() else { usage() };
                let Ok(n) = spec.parse::<usize>() else {
                    usage()
                };
                if n == 0 {
                    usage();
                }
                top = n;
            }
            _ if arg.starts_with("--") => usage(),
            _ => files.push(arg.clone()),
        }
    }
    if files.is_empty() {
        usage();
    }
    (top, files)
}

/// Parses `[--profile-only] [--tol <prefix>=<rel>]... <a> <b>` tails
/// (shared by `diff` and `attribution diff`).
fn parse_diff_args(rest: &[String], allow_profile_only: bool) -> (DiffOptions, String, String) {
    let mut opts = DiffOptions::default();
    let mut files = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--profile-only" if allow_profile_only => opts.profile_only = true,
            "--tol" => {
                let Some(spec) = it.next() else { usage() };
                let Some((prefix, tol)) = spec.split_once('=') else {
                    usage()
                };
                let Ok(tol) = tol.parse::<f64>() else { usage() };
                if !(tol.is_finite() && tol >= 0.0) {
                    usage();
                }
                opts.tolerances.push((prefix.to_owned(), tol));
            }
            _ if arg.starts_with("--") => usage(),
            _ => files.push(arg.clone()),
        }
    }
    let [baseline, candidate] = files.as_slice() else {
        usage()
    };
    (opts, baseline.clone(), candidate.clone())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((mode, rest)) = args.split_first() else {
        usage();
    };
    match mode.as_str() {
        "summary" => {
            let (top, files) = parse_top_and_files(rest);
            for path in &files {
                let docs = load(path);
                print!("{}", report::summary_top(&docs, top));
            }
            ExitCode::SUCCESS
        }
        "diff" => {
            let (opts, baseline, candidate) = parse_diff_args(rest, true);
            let a = load(&baseline);
            let b = load(&candidate);
            let diff = report::diff_docs(&a, &b, &opts);
            print!("{}", diff.render());
            ExitCode::from(diff.exit_code())
        }
        "attribution" => {
            if rest.first().map(String::as_str) == Some("diff") {
                let (opts, baseline, candidate) = parse_diff_args(&rest[1..], false);
                let a = load(&baseline);
                let b = load(&candidate);
                let diff = report::diff_spans_docs(&a, &b, &opts);
                print!("{}", diff.render());
                return ExitCode::from(diff.exit_code());
            }
            let (top, files) = parse_top_and_files(rest);
            for path in &files {
                let docs = load(path);
                print!("{}", report::attribution(&docs, top));
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
