//! Batch front end of the design-query service.
//!
//! Each positional argument is one `key=value` query spec (see
//! `DesignQuery::parse`); `--file PATH` appends one spec per line
//! (blank lines and `#` comments skipped); `--demo` appends the E18
//! grid. All requests run as one batch through a shared cache, so
//! duplicated specs are answered by one solve:
//!
//! ```text
//! query_cli "family=skat util=0.85" "family=skat_plus bath=skat_plus util=1.0"
//! query_cli --demo --capacity 8
//! ```
//!
//! Options: `--capacity N` (cache slots, default 32), `--threads N`
//! (default `RCS_THREADS` / host parallelism). A bad spec or a rejected
//! design point fails only its own request: every request gets a status
//! line (`ok` / `degraded` / `failed` plus the reason), answered
//! requests still print their verdicts, and the exit code is nonzero
//! only when *all* requests fail.

use std::process::ExitCode;

use rcs_core::experiments::Table;
use rcs_obs::{Registry, Sinks};
use rcs_query::{e18_query_service, DesignQuery, QueryEngine, QueryOutcome};

fn usage() -> &'static str {
    "usage: query_cli [--capacity N] [--threads N] [--file PATH] [--demo] [SPEC...]\n\
     each SPEC is key=value pairs, e.g. \"family=skat coolant=src_dielectric \
     bath=skat util=0.85 trials=256 seed=42\""
}

/// One request as given on the command line: either a parsed query or
/// a spec that already failed at the parser (kept so it still gets a
/// status line instead of aborting the batch).
enum Request {
    Parsed(DesignQuery),
    Bad { spec: String, error: String },
}

fn push_spec(requests: &mut Vec<Request>, spec: &str) {
    match DesignQuery::parse(spec) {
        Ok(query) => requests.push(Request::Parsed(query)),
        Err(e) => requests.push(Request::Bad {
            spec: spec.to_owned(),
            error: e.to_string(),
        }),
    }
}

fn parse_args() -> Result<(usize, usize, Vec<Request>), String> {
    let mut capacity = 32usize;
    let mut threads = rcs_parallel::thread_count();
    let mut requests = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--capacity" | "--threads" => {
                let value = args
                    .next()
                    .ok_or_else(|| format!("{arg} needs a value\n{}", usage()))?;
                let n: usize = value
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("{arg} needs a positive integer, got {value:?}"))?;
                if arg == "--capacity" {
                    capacity = n;
                } else {
                    threads = n;
                }
            }
            "--file" => {
                let path = args
                    .next()
                    .ok_or_else(|| format!("--file needs a path\n{}", usage()))?;
                let body = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                for line in body.lines() {
                    let line = line.trim();
                    if line.is_empty() || line.starts_with('#') {
                        continue;
                    }
                    push_spec(&mut requests, line);
                }
            }
            "--demo" => {
                requests.extend(e18_query_service::batch().into_iter().map(Request::Parsed));
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            spec => push_spec(&mut requests, spec),
        }
    }
    if requests.is_empty() {
        return Err(format!("no queries given\n{}", usage()));
    }
    Ok((capacity, threads, requests))
}

fn main() -> ExitCode {
    let (capacity, threads, requests) = match parse_args() {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("query_cli: {msg}");
            return ExitCode::FAILURE;
        }
    };

    let queries: Vec<DesignQuery> = requests
        .iter()
        .filter_map(|r| match r {
            Request::Parsed(q) => Some(q.clone()),
            Request::Bad { .. } => None,
        })
        .collect();

    let obs = Registry::new();
    let mut engine = QueryEngine::new(capacity);
    let outcomes = engine.run_batch(&queries, threads, Sinks::counters(&obs));

    // Per-request status lines, in request order; parse failures slot
    // back in between the solved outcomes.
    let mut answered = 0usize;
    let mut verdict_rows = Vec::new();
    let mut outcome_iter = queries.iter().zip(&outcomes);
    for (i, request) in requests.iter().enumerate() {
        let n = i + 1;
        match request {
            Request::Bad { spec, error } => {
                println!("[{n:3}] failed    {spec} :: {error}");
            }
            Request::Parsed(_) => {
                let Some((query, outcome)) = outcome_iter.next() else {
                    break;
                };
                match outcome {
                    QueryOutcome::Ok(_) => println!("[{n:3}] ok        {}", query.spec()),
                    QueryOutcome::Degraded { provenance, .. } => println!(
                        "[{n:3}] degraded  {} :: served from {:016x} (Δutil {:.3}) after: {}",
                        query.spec(),
                        provenance.source_hash,
                        provenance.delta_utilization,
                        provenance.error,
                    ),
                    QueryOutcome::Failed(e) => {
                        println!("[{n:3}] failed    {} :: {e}", query.spec());
                    }
                }
                if let Some(v) = outcome.verdict() {
                    answered += 1;
                    verdict_rows.push(vec![
                        query.spec(),
                        if outcome.is_degraded() {
                            "degraded"
                        } else {
                            "ok"
                        }
                        .to_owned(),
                        format!("{:016x}", v.query_hash),
                        format!("{:.1}", v.junction_c),
                        format!("{:.3}", v.cooling_overhead),
                        format!("{:.6}", v.availability_mean),
                        format!("{:.1}", v.annual_energy_kwh),
                        if v.compliant { "yes" } else { "no" }.to_owned(),
                    ]);
                }
            }
        }
    }

    if !verdict_rows.is_empty() {
        print!(
            "{}",
            Table::new(
                format!(
                    "design-query verdicts ({answered} of {} requests answered, {threads} threads)",
                    requests.len()
                ),
                &[
                    "query",
                    "status",
                    "hash",
                    "junction [°C]",
                    "overhead",
                    "avail (mean)",
                    "annual [kWh]",
                    "compliant",
                ],
                verdict_rows,
            )
        );
    }

    let snap = obs.snapshot();
    println!(
        "cache: {} hits, {} misses, {} coalesced, {} evictions ({} resident / capacity {capacity})",
        snap.counter("query.cache.hits"),
        snap.counter("query.cache.misses"),
        snap.counter("query.batch.coalesced"),
        snap.counter("query.cache.evictions"),
        engine.cache().len(),
    );

    if answered == 0 {
        eprintln!("query_cli: all {} requests failed", requests.len());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
