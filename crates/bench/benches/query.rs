//! Query-service saturation benchmarks: batch throughput across the
//! thread ladder and across a cold → warm hit-ratio ladder.
//!
//! Every row answers the same 12-point family × utilization grid, so
//! every row computes the identical verdicts (the determinism contract)
//! — only the wall-clock changes. The closing report lines quantify the
//! two claims the query layer makes: misses scale with the worker
//! count, and a cache hit is orders of magnitude cheaper than a cold
//! solve (the `hit_speedup` line must stay well above 10×).
//!
//! Run with `cargo bench -p rcs-bench --bench query`, or `-- --quick`
//! for the CI smoke pass.

use std::hint::black_box;
use std::time::Duration;

use rcs_bench::Harness;
use rcs_obs::Sinks;
use rcs_query::{DesignQuery, QueryEngine};

/// Deduplicated ascending ladder of worker counts to sweep.
fn thread_ladder() -> Vec<usize> {
    let mut ladder = vec![1, 4, rcs_parallel::thread_count()];
    ladder.sort_unstable();
    ladder.dedup();
    ladder
}

/// The benchmark grid: 12 distinct queries, modest trial budget so the
/// steady-state solve dominates over the Monte-Carlo.
fn grid(trials: u32) -> Vec<DesignQuery> {
    let mut queries = Vec::new();
    for family in ["rigel2", "taygeta", "skat", "skat_plus"] {
        let bath = if family == "skat_plus" {
            "skat_plus"
        } else {
            "skat"
        };
        for util in ["0.6", "0.85", "1.0"] {
            let spec = format!("family={family} bath={bath} util={util} trials={trials} seed=3");
            queries.push(DesignQuery::parse(&spec).expect("valid spec"));
        }
    }
    queries
}

fn main() {
    let mut h = Harness::from_args_for("query");
    let trials = if h.is_quick() { 32 } else { 128 };
    let queries = grid(trials);
    let n = queries.len();

    // Cold batches across the thread ladder: a fresh engine per
    // iteration, so every request is a miss and the scheduler's
    // parallel solve phase carries the whole batch.
    let mut cold_rows: Vec<(usize, Duration)> = Vec::new();
    for threads in thread_ladder() {
        let median = h.bench_median(&format!("query_batch/{n}q/cold/threads={threads}"), || {
            let mut engine = QueryEngine::new(2 * n);
            black_box(engine.run_batch(&queries, threads, Sinks::disabled()))
        });
        if let Some(median) = median {
            cold_rows.push((threads, median));
        }
    }

    // Hit-ratio ladder at one thread: pre-warm 50% and 100% of the
    // grid, then time the mixed batch against a clone of the warmed
    // engine each iteration, so every sample sees the same resident
    // set (re-using one engine would warm itself after the first
    // sample). The warm row is the saturated service answering from
    // memory alone.
    let mut warm_median = None;
    for (label, resident) in [("half", n / 2), ("warm", n)] {
        let mut warmed = QueryEngine::new(2 * n);
        warmed.run_batch(
            &queries[..resident],
            rcs_parallel::thread_count(),
            Sinks::disabled(),
        );
        let median = h.bench_median(&format!("query_batch/{n}q/hit_ratio={label}"), || {
            let mut engine = warmed.clone();
            black_box(engine.run_batch(&queries, 1, Sinks::disabled()))
        });
        if label == "warm" {
            warm_median = median;
        }
    }

    // Throughput + speedup report lines.
    let serial_cold = cold_rows.iter().find(|(t, _)| *t == 1).map(|&(_, d)| d);
    if let Some(serial) = serial_cold {
        let qps = n as f64 / serial.as_secs_f64().max(f64::MIN_POSITIVE);
        println!("bench  throughput query_cold/threads=1            {qps:.1} queries/s");
        if let Some((threads, best)) = cold_rows
            .iter()
            .filter(|(t, _)| *t > 1)
            .min_by_key(|(_, d)| *d)
            .copied()
        {
            let speedup = serial.as_secs_f64() / best.as_secs_f64().max(f64::MIN_POSITIVE);
            println!(
                "bench  speedup miss_solve_scaling               {speedup:.2}x (threads=1 vs threads={threads}, identical verdicts)"
            );
        }
    }
    if let (Some(cold), Some(warm)) = (serial_cold, warm_median) {
        let speedup = cold.as_secs_f64() / warm.as_secs_f64().max(f64::MIN_POSITIVE);
        let qps = n as f64 / warm.as_secs_f64().max(f64::MIN_POSITIVE);
        println!("bench  throughput query_warm/threads=1            {qps:.1} queries/s");
        println!("bench  speedup hit_speedup                      {speedup:.1}x (warm cache vs cold solve, bit-identical verdicts)");
    }

    h.finish();
}
