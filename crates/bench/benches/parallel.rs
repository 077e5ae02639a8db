//! Thread-count-parameterized benchmarks for the deterministic parallel
//! execution layer: the same seeded workloads at 1, 2 and N workers,
//! closing with a measured serial-vs-parallel speedup line per workload.
//!
//! Because the chunk → RNG-stream mapping is thread-count independent,
//! and a rack pass fans out over modules that only share the pass's
//! supply temperature, every row of this file computes the *identical*
//! result — only the wall-clock changes, which is exactly what this
//! bench quantifies. On a single-core host the speedup hovers around
//! 1×; on a multi-core host the Monte-Carlo sweep and the rack solve
//! should scale close to the worker count.
//!
//! Run with `cargo bench -p rcs-bench --bench parallel`, or `-- --quick`
//! for the CI smoke pass (fewer trials, still exercising the pooled
//! path).

use std::hint::black_box;
use std::time::Duration;

use rcs_bench::Harness;
use rcs_cooling::{availability, risk, ColdPlateLoop, CoolingArchitecture};
use rcs_core::{FleetConfig, FleetSimulation, RackImmersionModel};
use rcs_hydraulics::layout::ReturnStyle;
use rcs_obs::Sinks;

/// Deduplicated ascending ladder of worker counts to sweep: serial,
/// dual, and whatever the host (or `RCS_THREADS`) offers.
fn thread_ladder() -> Vec<usize> {
    let mut ladder = vec![1, 2, rcs_parallel::thread_count()];
    ladder.sort_unstable();
    ladder.dedup();
    ladder
}

/// Prints the speedup of the fastest parallel row over the serial row.
fn report_speedup(workload: &str, rows: &[(usize, Duration)]) {
    let Some(&(_, serial)) = rows.iter().find(|(t, _)| *t == 1) else {
        return;
    };
    let Some((threads, best)) = rows
        .iter()
        .filter(|(t, _)| *t > 1)
        .min_by_key(|(_, d)| *d)
        .copied()
    else {
        return;
    };
    let speedup = serial.as_secs_f64() / best.as_secs_f64().max(f64::MIN_POSITIVE);
    println!(
        "bench  speedup {workload:<34} {speedup:.2}x (threads=1 vs threads={threads}, identical outputs)"
    );
}

fn main() {
    let mut h = Harness::from_args_for("parallel");

    // Availability Monte-Carlo: the widest fan-out (trials / 64 chunks).
    let classes = risk::failure_classes(&CoolingArchitecture::ColdPlate(
        ColdPlateLoop::per_chip_plates(96),
    ));
    let trials = if h.is_quick() { 2_000 } else { 20_000 };
    let mut mc_rows = Vec::new();
    for threads in thread_ladder() {
        let median = h.bench_median(
            &format!("availability_mc/{trials}x5y/threads={threads}"),
            || {
                black_box(availability::monte_carlo_with_threads(
                    &classes,
                    5.0,
                    trials,
                    42,
                    threads,
                    Sinks::disabled(),
                ))
            },
        );
        if let Some(median) = median {
            mc_rows.push((threads, median));
        }
    }
    report_speedup("availability_mc", &mc_rows);

    // Fleet seed sweep: coarse items (one whole service life per seed).
    let seeds: Vec<u64> = (0..if h.is_quick() { 4 } else { 16 }).collect();
    let sim = FleetSimulation::new(12, 5.0, 0);
    let mut fleet_rows = Vec::new();
    for threads in thread_ladder() {
        let median = h.bench_median(
            &format!("fleet_seed_sweep/{}seeds/threads={threads}", seeds.len()),
            || {
                black_box(
                    sim.sweep_seeds_with_threads(FleetConfig::ColdPlates, &seeds, threads)
                        .expect("fleet sweep converges"),
                )
            },
        );
        if let Some(median) = median {
            fleet_rows.push((threads, median));
        }
    }
    report_speedup("fleet_seed_sweep", &fleet_rows);

    // Coupled rack solve: each shared-chiller pass fans out over the
    // modules. 16 direct-return SKAT+ modules overload the 150 kW
    // facility chiller, so the solve takes several passes.
    let rack = RackImmersionModel::skat_plus_rack(16).with_manifold_style(ReturnStyle::Direct);
    let mut rack_rows = Vec::new();
    for threads in thread_ladder() {
        let median = h.bench_median(&format!("rack_solve/16modules/threads={threads}"), || {
            black_box(
                rack.solve_with_threads(threads)
                    .expect("rack solve converges"),
            )
        });
        if let Some(median) = median {
            rack_rows.push((threads, median));
        }
    }
    report_speedup("rack_solve", &rack_rows);

    h.finish();
}
