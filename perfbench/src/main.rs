//! `perfbench` — one command per workload.
//!
//! ```text
//! perfbench --workload <query_mix|drill_fleet|rack_sweep> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>] [--repeat <runs>]
//! ```
//!
//! Every run uses the machine's available parallelism (`nproc`) as its
//! worker count. `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! traced passes, prints the per-layer metrics and writes the span
//! files. `--repeat N` runs the command N times on seeds `seed..seed+N`
//! in child processes and prints each metric's median and quartile
//! spread. The last stdout line of a single run is one JSON object.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use rcs_perfbench::{
    drill_fleet, probe_host, query_mix, rack_sweep, spans, stats, Budget, Measured, Traced,
    END_TO_END, MIN_SAMPLES, PER_LAYER, PROBE_REF_S, WORKLOADS,
};

const USAGE: &str = "usage: perfbench --workload <query_mix|drill_fleet|rack_sweep> --seed <n> \
--seconds <s> --trace <0|1> [--out <dir>] [--repeat <runs>]";

/// Set-ups per run at least, and the wall time they span at least;
/// `setup_s` is their median. The shared host has slow phases of a
/// second or two, so the set-ups span several seconds.
const SETUP_REPS: usize = 15;
const SETUP_SPAN_S: f64 = 3.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    repeat: Option<u64>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("perfbench/out"),
        repeat: None,
    };
    fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
        value
            .parse()
            .map_err(|_| format!("bad value {value:?} for {flag}"))
    }
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = parse(&flag, &value)?,
            "--seconds" => args.seconds = parse(&flag, &value)?,
            "--trace" => {
                args.trace = match parse::<u8>(&flag, &value)? {
                    0 => false,
                    1 => true,
                    _ => return Err(format!("bad value {value:?} for {flag}")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            "--repeat" => args.repeat = Some(parse(&flag, &value)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        let _ = write!(
            line,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    line.push_str("}}");
    line
}

/// Runs set-up at least [`SETUP_REPS`] times and for at least
/// [`SETUP_SPAN_S`], dropping each state before the next, and returns
/// the median time at the reference host speed (each set-up's time
/// divided by the host factor of a probe taken right after it), the
/// number of set-ups and the last state.
fn timed_setup<S>(setup: impl Fn() -> S) -> (f64, usize, S) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut state = None;
    while times.len() < SETUP_REPS || start.elapsed().as_secs_f64() < SETUP_SPAN_S {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        let took = t.elapsed().as_secs_f64();
        times.push(took * PROBE_REF_S / probe_host());
    }
    let state = state.expect("SETUP_REPS > 0");
    (stats::median(&times), times.len(), state)
}

/// Worker threads handed to the program's parallel entry points.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn untraced(args: &Args) -> String {
    let (seed, threads) = (args.seed, nproc());
    let budget = Budget {
        seconds: args.seconds,
        threads,
    };
    let (setup_s, setups, m): (f64, usize, Measured) = match args.workload.as_str() {
        "query_mix" => {
            let (s, n, mut state) = timed_setup(|| query_mix::setup(seed, threads));
            (s, n, query_mix::run(&mut state, seed, budget))
        }
        "drill_fleet" => {
            let (s, n, mut state) = timed_setup(|| drill_fleet::setup(seed));
            (s, n, drill_fleet::run(&mut state, budget))
        }
        _ => {
            let (s, n, mut state) = timed_setup(|| rack_sweep::setup(seed));
            (s, n, rack_sweep::run(&mut state, budget))
        }
    };
    let timed_s = m.timed.as_secs_f64();
    let samples = m.latencies_ms.len();
    let measured = m.timings();
    let host_factor = m.host_factor();
    let reference = m.at_reference();
    let values = [
        setup_s,
        reference.ops_per_s,
        reference.p50_ms,
        reference.p99_ms,
        stats::peak_rss_mb(),
    ];
    println!(
        "workload {} seed {seed} threads {threads} seconds {}",
        args.workload, args.seconds
    );
    println!(
        "  host factor {host_factor:.4} (median of {} probes {:.4} ms / reference {:.4} ms); \
as measured: {:.3} op/s, p50 {:.4} ms, p99 {:.4} ms",
        m.probes.len(),
        host_factor * PROBE_REF_S * 1e3,
        PROBE_REF_S * 1e3,
        measured.ops_per_s,
        measured.p50_ms,
        measured.p99_ms
    );
    let notes = [
        format!("median of {setups} set-ups, each ÷ its probe's factor"),
        format!(
            "median of {} windows, each × its probes' factor; {} ops in {timed_s:.3} s timed",
            m.window_rates.len(),
            m.ops
        ),
        format!(
            "median over windows of {} of {samples} samples, each ÷ its factor",
            m.window_samples
        ),
        format!(
            "median over {} blocks of >= {MIN_SAMPLES} of {samples} samples, each ÷ its factor",
            stats::blocks(samples, MIN_SAMPLES).len()
        ),
        "VmHWM".to_owned(),
    ];
    let mut metrics = Vec::new();
    for (((name, unit), value), note) in END_TO_END.iter().zip(values).zip(&notes) {
        println!("  {name:<16} {value:>14.6} {unit:<5} ({note})");
        metrics.push((*name, value, *unit));
    }
    println!(
        "  {:<16} {:>14.6} {:<5} ({} of {} ops)",
        "failed_frac",
        m.failed as f64 / m.ops.max(1) as f64,
        "ratio",
        m.failed,
        m.ops
    );
    println!(
        "  digest {:016x} over the first {} results",
        m.digest, m.digest_ops
    );
    result_line(m.failed == 0, m.ops, m.failed, &metrics)
}

fn traced(args: &Args) -> Result<String, String> {
    let (seed, threads) = (args.seed, nproc());
    let t: Traced = match args.workload.as_str() {
        "query_mix" => query_mix::traced(seed, threads),
        "drill_fleet" => drill_fleet::traced(seed, threads),
        _ => rack_sweep::traced(seed),
    };
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let stem = args.out.join(format!("{}-{seed}", args.workload));
    let ndjson = stem.with_extension("spans.ndjson");
    let chrome = stem.with_extension("chrome.json");
    for (path, body) in [
        (&ndjson, spans::render_ndjson(&t.spans)),
        (&chrome, spans::render_chrome(&t.spans)),
    ] {
        std::fs::write(path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    }

    println!(
        "workload {} seed {seed} threads {threads} traced: {} ops, {} failed, digest {:016x} ({})",
        args.workload,
        t.attempted,
        t.failed,
        t.digest,
        if t.correct {
            "equal across passes"
        } else {
            "PASSES DISAGREE OR OPS FAILED"
        }
    );
    println!(
        "  {} spans -> {} , {}",
        t.spans.len(),
        ndjson.display(),
        chrome.display()
    );
    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER {
        let measured = t.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1);
        let value = measured.unwrap_or(0.0);
        let note = if measured.is_some() {
            ""
        } else {
            "(layer not exercised)"
        };
        println!("  {name:<36} {value:>14.6} {unit:<5} {note}");
        metrics.push((name, value, unit));
    }
    Ok(result_line(t.correct, t.attempted, t.failed, &metrics))
}

/// Reads `name → (value, unit)` pairs back out of a result line.
fn parse_metrics(line: &str) -> Vec<(String, f64, String)> {
    const VALUE: &str = "\": {\"value\": ";
    const UNIT: &str = "\"unit\": \"";
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(i) = rest.find(VALUE) {
        let Some(name_start) = rest[..i].rfind('"') else {
            break;
        };
        let name = rest[name_start + 1..i].to_owned();
        let after = &rest[i + VALUE.len()..];
        let (Some(comma), Some(u)) = (after.find(','), after.find(UNIT)) else {
            break;
        };
        let unit_at = u + UNIT.len();
        let Some(unit_len) = after[unit_at..].find('"') else {
            break;
        };
        if let Ok(value) = after[..comma].trim().parse() {
            out.push((name, value, after[unit_at..unit_at + unit_len].to_owned()));
        }
        rest = &after[unit_at + unit_len..];
    }
    out
}

/// Runs this command `runs` times on consecutive seeds and prints each
/// metric's median, quartiles and spread ((q3 − q1) ÷ median).
fn repeat(args: &Args, runs: u64) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    for i in 0..runs {
        let seed = args.seed + i;
        let output = Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        if !output.status.success() || !last.contains("\"correct\": true") {
            return Err(format!("seed {seed}: run failed: {last}"));
        }
        eprintln!("seed {seed}: {last}");
        for (name, value, unit) in parse_metrics(last) {
            values
                .entry(name)
                .or_insert_with(|| (unit, Vec::new()))
                .1
                .push(value);
        }
    }
    println!(
        "{} x{runs} seeds {}..{} ({} s, trace {})",
        args.workload,
        args.seed,
        args.seed + runs - 1,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "  {:<36} {:>14} {:>14} {:>14} {:>8}",
        "metric", "q1", "median", "q3", "spread"
    );
    for (name, (unit, v)) in &values {
        let (q1, med, q3) = stats::quartiles(v);
        let spread = if med == 0.0 {
            0.0
        } else {
            (q3 - q1) / med.abs()
        };
        println!("  {name:<36} {q1:>14.6} {med:>14.6} {q3:>14.6} {spread:>8.4} {unit}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.repeat {
        Some(runs) => repeat(&args, runs).map(|()| None),
        None if args.trace => traced(&args).map(Some),
        None => Ok(Some(untraced(&args))),
    };
    match result {
        Ok(line) => {
            if let Some(line) = line {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
