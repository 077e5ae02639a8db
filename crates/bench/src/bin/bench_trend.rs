//! `bench_trend` — compare fresh `BENCH_*.json` benchmark exports
//! against the committed baselines in `goldens/`.
//!
//! ```text
//! bench_trend [--emit-history <dir>] <baseline_dir> <fresh_dir> [suite ...]
//! ```
//!
//! For every suite (default: `solvers`, `experiments`, `parallel`) the
//! checker loads `BENCH_<suite>.json` from both directories and
//! compares medians benchmark by benchmark:
//!
//! * **regression** — fresh median exceeds baseline × tolerance: the
//!   run FAILS (exit code 1) and names every offender.
//! * **missing** — a baselined benchmark is absent from the fresh run:
//!   FAILS, a silently dropped benchmark must never pass the gate.
//! * **new** — a fresh benchmark with no baseline: reported, never
//!   fatal (re-pin the baseline to start tracking it).
//! * **improved** — fresh median below baseline / tolerance: reported
//!   so a lucky machine does not silently become the new normal.
//!
//! The tolerance band is deliberately wide (default 4.0×) because CI
//! machines vary and `--quick` medians are 3-sample. Override with
//! `RCS_BENCH_TOLERANCE`. Wall-clock numbers are a *trend* signal; the
//! bit-exact `profile.*` work counters in the golden manifests are the
//! precise regression gate.
//!
//! `--emit-history <dir>` appends one NDJSON line per suite to
//! `<dir>/<suite>.ndjson` after the comparison: the fresh medians, the
//! baseline medians, the ratio verdicts and a Unix timestamp. CI
//! uploads the directory as an artifact, so the per-run lines
//! accumulate into a queryable latency history without ever entering
//! the golden channel.

use std::path::Path;
use std::process::ExitCode;

use rcs_obs::manifest::escape_json;
use rcs_obs::report::{parse_json, Json};

/// Median ratio (fresh / baseline) above which a benchmark fails.
const DEFAULT_TOLERANCE: f64 = 4.0;

const DEFAULT_SUITES: [&str; 4] = ["solvers", "experiments", "parallel", "query"];

struct Entry {
    name: String,
    median_ns: f64,
}

fn load_suite(dir: &str, suite: &str) -> Result<Vec<Entry>, String> {
    let path = Path::new(dir).join(format!("BENCH_{suite}.json"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Json::Arr(benches)) = doc.get("benchmarks") else {
        return Err(format!("{}: no \"benchmarks\" array", path.display()));
    };
    let mut entries = Vec::new();
    for b in benches {
        let name = b
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: benchmark without a name", path.display()))?;
        let median_ns = b
            .get("median_ns")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{}: {name} has no median_ns", path.display()))?;
        entries.push(Entry {
            name: name.to_owned(),
            median_ns,
        });
    }
    Ok(entries)
}

fn check_suite(baseline_dir: &str, fresh_dir: &str, suite: &str, tol: f64) -> Result<u32, String> {
    let baseline = load_suite(baseline_dir, suite)?;
    let fresh = load_suite(fresh_dir, suite)?;
    let mut failures = 0;
    for base in &baseline {
        match fresh.iter().find(|f| f.name == base.name) {
            None => {
                println!("FAIL  {suite}/{}: missing from the fresh run", base.name);
                failures += 1;
            }
            Some(f) => {
                let ratio = f.median_ns / base.median_ns.max(1.0);
                if ratio > tol {
                    println!(
                        "FAIL  {suite}/{}: {:.0} ns vs baseline {:.0} ns ({ratio:.2}x > {tol:.2}x)",
                        base.name, f.median_ns, base.median_ns
                    );
                    failures += 1;
                } else if ratio < 1.0 / tol {
                    println!(
                        "note  {suite}/{}: improved {ratio:.2}x ({:.0} ns vs {:.0} ns) — consider re-pinning",
                        base.name, f.median_ns, base.median_ns
                    );
                } else {
                    println!("ok    {suite}/{}: {ratio:.2}x", base.name);
                }
            }
        }
    }
    for f in &fresh {
        if !baseline.iter().any(|b| b.name == f.name) {
            println!(
                "note  {suite}/{}: new benchmark ({:.0} ns), no baseline yet",
                f.name, f.median_ns
            );
        }
    }
    Ok(failures)
}

/// Appends one NDJSON history line for `suite` to
/// `<dir>/<suite>.ndjson`: fresh and baseline medians side by side plus
/// the run verdict, stamped with Unix seconds.
fn emit_history(
    dir: &str,
    suite: &str,
    baseline: &[Entry],
    fresh: &[Entry],
    tol: f64,
    failures: u32,
) -> Result<(), String> {
    use std::io::Write as _;
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let benches: Vec<String> = fresh
        .iter()
        .map(|f| {
            let base = baseline
                .iter()
                .find(|b| b.name == f.name)
                .map_or_else(|| "null".to_owned(), |b| format!("{}", b.median_ns));
            format!(
                "{{\"name\":\"{}\",\"median_ns\":{},\"baseline_ns\":{base}}}",
                escape_json(&f.name),
                f.median_ns
            )
        })
        .collect();
    let line = format!(
        "{{\"type\":\"bench_history\",\"suite\":\"{}\",\"unix_ts\":{ts},\"tolerance\":{tol},\
         \"failures\":{failures},\"benchmarks\":[{}]}}\n",
        escape_json(suite),
        benches.join(",")
    );
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let path = Path::new(dir).join(format!("{suite}.ndjson"));
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(line.as_bytes()))
        .map_err(|e| format!("cannot append to {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut history_dir: Option<String> = None;
    if let Some(i) = args.iter().position(|a| a == "--emit-history") {
        if i + 1 >= args.len() {
            eprintln!("--emit-history needs a directory");
            return ExitCode::from(2);
        }
        history_dir = Some(args.remove(i + 1));
        args.remove(i);
    }
    if args.len() < 2 || args.iter().any(|a| a.starts_with("--")) {
        eprintln!(
            "usage: bench_trend [--emit-history <dir>] <baseline_dir> <fresh_dir> [suite ...]"
        );
        return ExitCode::from(2);
    }
    let (baseline_dir, fresh_dir) = (&args[0], &args[1]);
    let suites: Vec<&str> = if args.len() > 2 {
        args[2..].iter().map(String::as_str).collect()
    } else {
        DEFAULT_SUITES.to_vec()
    };
    let tol = match std::env::var("RCS_BENCH_TOLERANCE") {
        Ok(v) => match v.parse::<f64>() {
            Ok(t) if t.is_finite() && t > 1.0 => t,
            _ => {
                eprintln!("RCS_BENCH_TOLERANCE must be a finite number > 1, got {v:?}");
                return ExitCode::from(2);
            }
        },
        Err(_) => DEFAULT_TOLERANCE,
    };

    let mut failures = 0u32;
    for suite in suites {
        match check_suite(baseline_dir, fresh_dir, suite, tol) {
            Ok(n) => {
                failures += n;
                if let Some(dir) = &history_dir {
                    let emitted = load_suite(baseline_dir, suite).and_then(|baseline| {
                        let fresh = load_suite(fresh_dir, suite)?;
                        emit_history(dir, suite, &baseline, &fresh, tol, n)
                    });
                    if let Err(e) = emitted {
                        eprintln!("error: history for {suite}: {e}");
                        failures += 1;
                    }
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("bench_trend: {failures} failure(s) at tolerance {tol:.2}x");
        ExitCode::FAILURE
    } else {
        println!("bench_trend: all suites within {tol:.2}x of the committed baselines");
        ExitCode::SUCCESS
    }
}
