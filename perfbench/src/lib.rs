//! The rcs-sim benchmark: three closed-loop workloads driven through the
//! program's public entry points, an untraced run for the end-to-end
//! metrics and a traced run for the per-layer metrics. See `README.md`.

pub mod drill_fleet;
pub mod gen;
pub mod query_mix;
pub mod rack_sweep;
pub mod sinks;
pub mod spans;
pub mod stats;

use std::ops::Range;
use std::time::{Duration, Instant};

use spans::Span;

/// Workload names, as the command line takes them.
pub const WORKLOADS: [&str; 3] = ["query_mix", "drill_fleet", "rack_sweep"];

/// End-to-end metrics printed in the result line of an untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics printed in the result line of a traced run. A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("query.hit_ratio", "ratio"),
    ("query.coalesced_per_req", "ratio"),
    ("query.evictions", "count"),
    ("query.parse_us", "us"),
    ("query.lookup_us", "us"),
    ("query.miss_solve_ms_p50", "ms"),
    ("query.miss_solve_ms_p99", "ms"),
    ("immersion.solve_robust_us_p50", "us"),
    ("immersion.fixed_point_iters_per_op", "count"),
    ("availability.mc_us_per_trial", "us"),
    ("availability.mc_trials_per_op", "count"),
    ("hydraulics.iters_per_op", "count"),
    ("hydraulics.warm_start_ratio", "ratio"),
    ("hydraulics.factorizations_per_op", "count"),
    ("hydraulics.manifold_solve_ms_p50", "ms"),
    ("hydraulics.manifold_solve_ms_p99", "ms"),
    ("hydraulics.us_per_iter", "us"),
    ("drill.us_per_scan", "us"),
    ("drill.relin_per_scan", "ratio"),
    ("thermal.ode_steps_per_op", "count"),
    ("rack.solve_ms_p50", "ms"),
    ("rack.trim_ms_p50", "ms"),
    ("rack.trim_rounds_per_op", "count"),
    ("parallel.speedup", "ratio"),
    ("parallel.efficiency", "ratio"),
    ("parallel.straggler_ratio", "ratio"),
    ("parallel.dispatch_us_per_item", "us"),
    ("obs.work_units_per_op", "count"),
    ("obs.ns_per_work_unit", "ns"),
    ("obs.trace_overhead_frac", "ratio"),
];

/// What an untraced run measured.
pub struct Measured {
    /// Ops completed in the timed loop.
    pub ops: u64,
    /// Ops whose outcome or correctness check failed.
    pub failed: u64,
    /// Σ of the timed sections (checks and input refills excluded).
    pub timed: Duration,
    /// One latency sample per op (per batch on `query_mix`), ms.
    pub latencies_ms: Vec<f64>,
    /// Throughput of each full window of the run, op/s.
    pub window_rates: Vec<f64>,
    /// Latency samples per window.
    pub window_samples: usize,
    /// Latency samples per timed section (a drill group's 16; else 1).
    pub section_samples: usize,
    /// [`probe_host`] times taken through the run, s, each with the
    /// number of timed sections before it.
    pub probes: Vec<(usize, f64)>,
    /// Digest over the first [`Measured::digest_ops`] results.
    pub digest: u64,
    /// Results the digest covers.
    pub digest_ops: u64,
}

/// What a traced run measured.
pub struct Traced {
    /// Ops of the traced pass.
    pub attempted: u64,
    /// Failed ops of the traced pass.
    pub failed: u64,
    /// `false` when the passes' digests disagree or an op failed.
    pub correct: bool,
    /// Per-layer metrics by name; names missing here print as 0.
    pub metrics: Vec<(&'static str, f64)>,
    /// Benchmark-side wall-clock spans of the traced pass.
    pub spans: Vec<Span>,
    /// Digest of the traced pass (equal across its passes when correct).
    pub digest: u64,
}

/// Latency samples an untraced run collects at least, so that at least
/// ten lie beyond the p99.
pub const MIN_SAMPLES: usize = 1000;

/// The untraced run's wall-clock budget and worker count.
#[derive(Clone, Copy)]
pub struct Budget {
    /// Measurement wall-clock budget.
    pub seconds: f64,
    /// Worker threads handed to the program's parallel entry points.
    pub threads: usize,
}

/// Loop clock of an untraced run: measurement continues until the
/// budget is spent, the digest prefix is complete and [`MIN_SAMPLES`]
/// latencies are in.
pub struct Deadline {
    start: Instant,
    seconds: f64,
}

impl Deadline {
    /// Starts the clock.
    #[must_use]
    pub fn start(seconds: f64) -> Self {
        Self {
            start: Instant::now(),
            seconds,
        }
    }

    /// `true` once the budget is spent, `ops >= digest_ops` and
    /// `samples >= MIN_SAMPLES`.
    #[must_use]
    pub fn over(&self, ops: u64, digest_ops: u64, samples: usize) -> bool {
        ops >= digest_ops
            && samples >= MIN_SAMPLES
            && self.start.elapsed().as_secs_f64() >= self.seconds
    }
}

/// Steps of the probe's dependent floating-point recurrence.
const PROBE_STEPS: usize = 200_000;
/// Dense systems one probe worker eliminates.
const PROBE_SOLVES: usize = 600;
/// Order of the probe's dense systems.
const PROBE_ORDER: usize = 12;

/// What the host probe takes on the reference machine, a 2-vCPU Xeon VM
/// (two workers), s.
pub const PROBE_REF_S: f64 = 1.7e-3;

fn probe_worker() -> f64 {
    let n = PROBE_ORDER;
    let t = Instant::now();
    let (mut x, mut y) = (1.0f64, 0.5f64);
    for i in 0..PROBE_STEPS {
        x = x * 1.000_000_1 + y;
        y = y * 0.999_999_9 - x * 1e-9 + i as f64 * 1e-12;
    }
    std::hint::black_box((x, y));
    let mut last_pivot = 0.0;
    for r in 0..PROBE_SOLVES {
        let diagonal = 4.0 + std::hint::black_box(r) as f64 * 1e-6;
        let mut a: Vec<f64> = (0..n * n)
            .map(|ij| {
                let (i, j) = (ij / n, ij % n);
                if i == j {
                    diagonal
                } else {
                    1.0 / (i + j + 1) as f64
                }
            })
            .collect();
        for k in 0..n {
            for i in k + 1..n {
                let f = a[i * n + k] / a[k * n + k];
                for j in k..n {
                    a[i * n + j] -= f * a[k * n + j];
                }
            }
        }
        last_pivot += a[n * n - 1];
    }
    std::hint::black_box(last_pivot);
    t.elapsed().as_secs_f64()
}

/// Times a fixed piece of work that is not the program's on one worker
/// per available CPU at once, and takes the slowest: how fast the host
/// runs right now. Each worker runs a dependent floating-point
/// recurrence, then allocates and eliminates 600 small dense systems.
/// Alone, neither kernel tracked the program through the host's swings
/// in every period measured: the recurrence moved less than the program,
/// the eliminations sometimes more, and a hash-map probe made the drill
/// medians less steady than no probe at all. Their sum corrected both
/// drill medians and throughput in 20 s segments of 320 s of drills.
#[must_use]
pub fn probe_host() -> f64 {
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    rcs_parallel::par_map_indexed(vec![(); workers], workers, |_, ()| probe_worker())
        .into_iter()
        .fold(0.0, f64::max)
}

/// Throughput per window of consecutive timed sections (batches, groups
/// or designs), and host probes at a fixed cadence between sections.
/// `ops_per_s` and `latency_p50_ms` are medians over windows, so a burst
/// of load from outside the process moves a few windows, not the
/// reported value. The probes run outside the timed sections.
pub struct Windows {
    size: usize,
    probe_every: usize,
    sections: usize,
    count: usize,
    ops: u64,
    secs: f64,
    rates: Vec<f64>,
    probes: Vec<(usize, f64)>,
}

impl Windows {
    /// Windows of `size` timed sections, with a [`probe_host`] now and
    /// after every `probe_every` sections.
    #[must_use]
    pub fn new(size: usize, probe_every: usize) -> Self {
        Self {
            size,
            probe_every: probe_every.max(1),
            sections: 0,
            count: 0,
            ops: 0,
            secs: 0.0,
            rates: Vec::new(),
            probes: vec![(0, probe_host())],
        }
    }

    /// Adds one timed section of `ops` ops that took `secs`.
    pub fn add(&mut self, ops: u64, secs: f64) {
        self.sections += 1;
        self.count += 1;
        self.ops += ops;
        self.secs += secs;
        if self.count == self.size {
            self.rates.push(self.ops as f64 / self.secs);
            (self.count, self.ops, self.secs) = (0, 0, 0.0);
        }
        if self.sections.is_multiple_of(self.probe_every) {
            self.probes.push((self.sections, probe_host()));
        }
    }

    /// The full windows' rates (the partial window's when none is
    /// full), and the probes, each with the number of sections timed
    /// before it.
    #[must_use]
    pub fn finish(mut self) -> (Vec<f64>, Vec<(usize, f64)>) {
        if self.rates.is_empty() && self.count > 0 {
            self.rates.push(self.ops as f64 / self.secs);
        }
        (self.rates, self.probes)
    }
}

/// The timings of an untraced run, as measured on the host.
pub struct Timings {
    /// Median throughput over windows, op/s.
    pub ops_per_s: f64,
    /// Median over windows of each window's median latency, ms.
    pub p50_ms: f64,
    /// Median over blocks of at least [`MIN_SAMPLES`] of each block's
    /// p99 latency, ms.
    pub p99_ms: f64,
}

impl Measured {
    /// The run's timings as measured.
    #[must_use]
    pub fn timings(&self) -> Timings {
        Timings {
            ops_per_s: stats::median(&self.window_rates),
            p50_ms: stats::windowed_percentile(&self.latencies_ms, self.window_samples, 0.5),
            p99_ms: stats::block_median_percentile(&self.latencies_ms, MIN_SAMPLES, 0.99),
        }
    }

    /// The run's median probe ÷ [`PROBE_REF_S`]: how many times slower
    /// than the reference the host ran during the run.
    #[must_use]
    pub fn host_factor(&self) -> f64 {
        let probes: Vec<f64> = self.probes.iter().map(|p| p.1).collect();
        stats::median(&probes) / PROBE_REF_S
    }

    /// The host factor while the timed sections `sections` ran: the
    /// median of the probes taken from their start to their end ÷
    /// [`PROBE_REF_S`]; the run's factor when none was taken then.
    fn factor_during(&self, sections: Range<usize>) -> f64 {
        let local: Vec<f64> = self
            .probes
            .iter()
            .filter(|(at, _)| (sections.start..=sections.end).contains(at))
            .map(|p| p.1)
            .collect();
        if local.is_empty() {
            self.host_factor()
        } else {
            stats::median(&local) / PROBE_REF_S
        }
    }

    /// The run's timings on a host of the reference speed: each window's
    /// throughput and median, and each block's p99, scaled by the host
    /// factor of the probes taken while it ran (rates multiplied, times
    /// divided), then the median over windows or blocks as in
    /// [`Measured::timings`]. The host's speed moves in phases of
    /// seconds, so a window's own probes track it more closely than the
    /// run's.
    #[must_use]
    pub fn at_reference(&self) -> Timings {
        let per_section = self.section_samples.max(1);
        let per_window = (self.window_samples / per_section).max(1);
        let window = |k: usize| self.factor_during(k * per_window..(k + 1) * per_window);
        let rates: Vec<f64> = self
            .window_rates
            .iter()
            .enumerate()
            .map(|(k, rate)| rate * window(k))
            .collect();
        let p50s: Vec<f64> = self
            .latencies_ms
            .chunks_exact(self.window_samples.max(1))
            .enumerate()
            .map(|(k, w)| stats::percentile(w, 0.5) / window(k))
            .collect();
        let p50_ms = if p50s.is_empty() {
            stats::percentile(&self.latencies_ms, 0.5) / self.host_factor()
        } else {
            stats::median(&p50s)
        };
        let p99s: Vec<f64> = stats::blocks(self.latencies_ms.len(), MIN_SAMPLES)
            .into_iter()
            .map(|b| {
                let during = b.start / per_section..b.end.div_ceil(per_section);
                stats::percentile(&self.latencies_ms[b], 0.99) / self.factor_during(during)
            })
            .collect();
        Timings {
            ops_per_s: stats::median(&rates),
            p50_ms,
            p99_ms: stats::median(&p99s),
        }
    }
}

/// Per-op shares of a golden counter snapshot, guarded against an
/// empty denominator.
#[must_use]
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Hydraulic-layer ratios per network solve (ladder solves inside the
/// immersion model plus direct network solves), from one snapshot.
#[must_use]
pub fn hydraulics_metrics(snap: &rcs_obs::Snapshot) -> Vec<(&'static str, f64)> {
    let solves = snap.counter("hydraulics.ladder.calls") + snap.counter("hydraulics.solve.calls");
    vec![
        (
            "hydraulics.iters_per_op",
            ratio(snap.counter("profile.hydraulics.iterations"), solves),
        ),
        (
            "hydraulics.warm_start_ratio",
            ratio(snap.counter("profile.hydraulics.warm_starts"), solves),
        ),
        (
            "hydraulics.factorizations_per_op",
            ratio(snap.counter("profile.hydraulics.factorizations"), solves),
        ),
    ]
}

/// Mean wall time of one `par_map_indexed` call over [`gen::GROUP`]
/// empty items, per item, µs.
#[must_use]
pub fn dispatch_us_per_item(threads: usize) -> f64 {
    const CALLS: usize = 2000;
    let mut samples = Vec::with_capacity(CALLS);
    for _ in 0..CALLS {
        let items = vec![(); gen::GROUP];
        let t = Instant::now();
        let out = rcs_parallel::par_map_indexed(items, threads, |i, ()| i);
        samples.push(t.elapsed().as_secs_f64());
        std::hint::black_box(out);
    }
    stats::median(&samples) * 1e6 / gen::GROUP as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_rate_full_windows_and_probe_at_their_cadence() {
        let mut w = Windows::new(2, 3);
        for secs in [1.0, 3.0, 0.5, 0.5, 9.0] {
            w.add(8, secs);
        }
        let (rates, probes) = w.finish();
        assert_eq!(rates, vec![4.0, 16.0]);
        assert_eq!(probes.iter().map(|p| p.0).collect::<Vec<_>>(), [0, 3]);
        assert!(probes.iter().all(|p| p.1 > 0.0));
    }

    #[test]
    fn each_window_scales_by_the_probes_taken_while_it_ran() {
        // two windows of two sections of two samples; the host ran at
        // the reference speed through the first and half of it through
        // the second, which therefore measured twice the time
        let m = Measured {
            ops: 8,
            failed: 0,
            timed: Duration::from_secs(6),
            latencies_ms: vec![1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0],
            window_rates: vec![2.0, 1.0],
            window_samples: 4,
            section_samples: 2,
            probes: vec![(0, PROBE_REF_S), (1, PROBE_REF_S), (3, 2.0 * PROBE_REF_S)],
            digest: 0,
            digest_ops: 0,
        };
        let t = m.at_reference();
        assert_eq!((t.ops_per_s, t.p50_ms), (2.0, 1.0));
        // one block of all eight samples, its probes' median 1
        assert_eq!(t.p99_ms, 2.0);
    }
}
