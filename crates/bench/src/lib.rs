//! Built-in wall-clock benchmark harness plus the workspace's three
//! benchmark suites: `benches/solvers.rs` (substrate solver
//! micro-benchmarks), `benches/experiments.rs` (one benchmark per
//! paper table/figure) and `benches/parallel.rs` (thread-count-swept
//! Monte-Carlo and fleet sweeps with a serial-vs-parallel speedup
//! report).
//!
//! The harness is vendored so that benchmarking needs no external
//! crates: each target is warmed up, then timed for a fixed number of
//! samples, and the **median** and **minimum** per-iteration wall-clock
//! times are reported. Medians are robust to scheduler noise; minima
//! approximate the noise-free cost.
//!
//! Run with `cargo bench -p rcs-bench`, or `cargo bench -p rcs-bench --
//! --quick` for the single-iteration smoke mode CI uses. A bare word
//! argument filters benchmarks by substring, as in
//! `cargo bench -p rcs-bench -- matrix`.
//!
//! When `RCS_BENCH_JSON_DIR` is set, [`Harness::finish`] additionally
//! writes the suite's results as `BENCH_<suite>.json` in that
//! directory — the machine-readable form the committed
//! `goldens/BENCH_*.json` baselines and the `bench_trend` checker
//! consume.
//!
//! # Examples
//!
//! ```
//! let mut harness = rcs_bench::Harness::quick();
//! harness.bench("sum", || (0..1000u64).sum::<u64>());
//! ```

#![warn(missing_docs)]

use std::hint::black_box;
use std::time::{Duration, Instant};

use rcs_obs::manifest::escape_json;

/// Target wall-clock time for one measured sample in full mode.
const SAMPLE_TARGET: Duration = Duration::from_millis(5);
/// Warmup budget in full mode.
const WARMUP_TARGET: Duration = Duration::from_millis(200);
/// Measured samples in full mode.
const FULL_SAMPLES: usize = 15;
/// Measured samples in `--quick` mode.
const QUICK_SAMPLES: usize = 3;

/// One recorded benchmark result, as exported to `BENCH_<suite>.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BenchResult {
    /// Benchmark name, e.g. `matrix_solve/96`.
    pub name: String,
    /// Median per-iteration wall-clock time in nanoseconds.
    pub median_ns: u128,
    /// Minimum per-iteration wall-clock time in nanoseconds.
    pub min_ns: u128,
}

/// A minimal wall-clock benchmark runner.
#[derive(Debug, Clone)]
pub struct Harness {
    quick: bool,
    filter: Option<String>,
    suite: String,
    ran: usize,
    results: Vec<BenchResult>,
}

impl Harness {
    /// Builds a harness for the named suite from the process arguments,
    /// as passed by `cargo bench -p rcs-bench -- [--quick] [FILTER]`.
    ///
    /// `--quick` selects the fast smoke mode; any argument not starting
    /// with `-` is a substring filter on benchmark names; other flags
    /// (such as the `--bench` cargo appends) are ignored. The suite
    /// name becomes the `BENCH_<suite>.json` export file name.
    #[must_use]
    pub fn from_args_for(suite: &str) -> Self {
        let mut quick = false;
        let mut filter = None;
        for arg in std::env::args().skip(1) {
            if arg == "--quick" {
                quick = true;
            } else if !arg.starts_with('-') {
                filter = Some(arg);
            }
        }
        Self {
            quick,
            filter,
            suite: suite.to_owned(),
            ran: 0,
            results: Vec::new(),
        }
    }

    /// A harness pinned to quick mode with no filter (useful in tests
    /// and doctests).
    #[must_use]
    pub fn quick() -> Self {
        Self {
            quick: true,
            filter: None,
            suite: "bench".to_owned(),
            ran: 0,
            results: Vec::new(),
        }
    }

    /// Whether quick (smoke) mode is active.
    #[must_use]
    pub fn is_quick(&self) -> bool {
        self.quick
    }

    /// Times `f`, printing median and minimum per-iteration wall-clock
    /// time. Skipped if a name filter is set and does not match.
    pub fn bench<T, F: FnMut() -> T>(&mut self, name: &str, f: F) {
        let _ = self.bench_median(name, f);
    }

    /// Like [`Harness::bench`], but also returns the median
    /// per-iteration time so callers can derive comparative reports
    /// (e.g. the serial-vs-parallel speedups in `benches/parallel.rs`).
    /// Returns `None` when a name filter skipped the benchmark.
    pub fn bench_median<T, F: FnMut() -> T>(&mut self, name: &str, mut f: F) -> Option<Duration> {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return None;
            }
        }
        let stats = self.measure(&mut f);
        self.ran += 1;
        self.results.push(BenchResult {
            name: name.to_owned(),
            median_ns: stats.median.as_nanos(),
            min_ns: stats.min.as_nanos(),
        });
        println!(
            "bench  {name:<42} median {:>10}   min {:>10}   ({} samples x {} iters)",
            format_duration(stats.median),
            format_duration(stats.min),
            stats.samples,
            stats.iters_per_sample,
        );
        Some(stats.median)
    }

    /// Prints a closing summary; call once after the last benchmark.
    /// When `RCS_BENCH_JSON_DIR` is set, also writes the results as
    /// `BENCH_<suite>.json` in that directory.
    ///
    /// # Panics
    ///
    /// Panics if `RCS_BENCH_JSON_DIR` is set but the export file cannot
    /// be written — a silent export failure would let the bench-trend
    /// gate pass vacuously.
    pub fn finish(&self) {
        let mode = if self.quick { "quick" } else { "full" };
        println!(
            "bench  done: {} benchmark(s) in {mode} mode{}",
            self.ran,
            match &self.filter {
                Some(f) => format!(" (filter: {f})"),
                None => String::new(),
            }
        );
        if let Ok(dir) = std::env::var("RCS_BENCH_JSON_DIR") {
            let path = std::path::Path::new(&dir).join(format!("BENCH_{}.json", self.suite));
            std::fs::write(&path, self.render_json())
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
            println!("bench  wrote {}", path.display());
        }
    }

    /// Renders the recorded results as the `BENCH_*.json` document.
    #[must_use]
    pub(crate) fn render_json(&self) -> String {
        let mode = if self.quick { "quick" } else { "full" };
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"suite\": \"{}\",\n", escape_json(&self.suite)));
        out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
        out.push_str("  \"benchmarks\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            let comma = if i + 1 < self.results.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"median_ns\": {}, \"min_ns\": {}}}{comma}\n",
                escape_json(&r.name),
                r.median_ns,
                r.min_ns
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    fn measure<T, F: FnMut() -> T>(&self, f: &mut F) -> Stats {
        // One mandatory call both warms caches and sizes the workload.
        let probe_start = Instant::now();
        black_box(f());
        let probe = probe_start.elapsed().max(Duration::from_nanos(1));

        if self.quick {
            return sample(f, QUICK_SAMPLES, 1);
        }

        // Warm up for the remaining budget.
        let warm_start = Instant::now();
        while warm_start.elapsed() < WARMUP_TARGET.saturating_sub(probe) {
            black_box(f());
        }

        // Batch fast functions so each sample is long enough to time
        // reliably.
        let iters_per_sample = (SAMPLE_TARGET.as_nanos() / probe.as_nanos()).clamp(1, 10_000);
        sample(
            f,
            FULL_SAMPLES,
            usize::try_from(iters_per_sample).unwrap_or(1),
        )
    }
}

/// Per-benchmark timing summary.
struct Stats {
    median: Duration,
    min: Duration,
    samples: usize,
    iters_per_sample: usize,
}

fn sample<T, F: FnMut() -> T>(f: &mut F, samples: usize, iters_per_sample: usize) -> Stats {
    let mut per_iter: Vec<Duration> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            start.elapsed() / u32::try_from(iters_per_sample).unwrap_or(1)
        })
        .collect();
    per_iter.sort_unstable();
    Stats {
        median: per_iter[samples / 2],
        min: per_iter[0],
        samples,
        iters_per_sample,
    }
}

/// Renders a duration with an adaptive unit, e.g. `12.3 µs`.
fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mode_runs_and_counts() {
        let mut h = Harness::quick();
        h.bench("counting", || (0..100u64).product::<u64>());
        assert_eq!(h.ran, 1);
        assert!(h.is_quick());
    }

    #[test]
    fn filter_skips_non_matching_names() {
        let mut h = Harness {
            quick: true,
            filter: Some("matrix".into()),
            suite: "bench".into(),
            ran: 0,
            results: Vec::new(),
        };
        h.bench("thermal_steady", || 1u64);
        assert_eq!(h.ran, 0);
        h.bench("matrix_solve/8", || 1u64);
        assert_eq!(h.ran, 1);
        assert_eq!(h.results.len(), 1, "skipped benchmarks are not exported");
    }

    #[test]
    fn json_export_round_trips_through_the_obs_parser() {
        let mut h = Harness::quick();
        h.suite = "unit".into();
        h.bench("alpha/1", || 1u64);
        h.bench("beta \"quoted\"\\", || 2u64);
        let doc = rcs_obs::report::parse_json(&h.render_json()).unwrap();
        assert_eq!(doc.get("suite").and_then(|v| v.as_str()), Some("unit"));
        assert_eq!(doc.get("mode").and_then(|v| v.as_str()), Some("quick"));
        let rcs_obs::report::Json::Arr(benches) = doc.get("benchmarks").unwrap() else {
            panic!("benchmarks must be an array");
        };
        assert_eq!(benches.len(), 2);
        assert_eq!(
            benches[0].get("name").and_then(|v| v.as_str()),
            Some("alpha/1")
        );
        assert!(benches[0]
            .get("median_ns")
            .and_then(|v| v.as_u64())
            .is_some());
        assert_eq!(
            benches[1].get("name").and_then(|v| v.as_str()),
            Some("beta \"quoted\"\\")
        );
        assert!(benches[1].get("min_ns").and_then(|v| v.as_u64()).is_some());
    }

    #[test]
    fn durations_render_with_adaptive_units() {
        assert_eq!(format_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(format_duration(Duration::from_micros(12)), "12.00 µs");
        assert_eq!(format_duration(Duration::from_millis(12)), "12.00 ms");
        assert_eq!(format_duration(Duration::from_secs(2)), "2.00 s");
    }

    #[test]
    fn stats_are_ordered() {
        let mut calls = 0u64;
        let stats = sample(
            &mut || {
                calls += 1;
                std::thread::sleep(Duration::from_micros(50));
            },
            5,
            2,
        );
        assert!(stats.min <= stats.median);
        assert_eq!(calls, 5 * 2);
    }
}
