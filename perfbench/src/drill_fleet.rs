//! `drill_fleet`: the supervised plant as a digital twin.
//!
//! One closed-loop client submits groups of 16 seeded 20-minute
//! `FaultDrill`s through `rcs_parallel::par_map_indexed`. An op is one
//! drill; its latency is the drill's host time inside the closure.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use rcs_core::DrillOutcome;
use rcs_numeric::hash::Fnv1a;
use rcs_obs::span::SpanSink;
use rcs_obs::{Registry, Snapshot};

use crate::gen::{DrillGen, DrillInput, GROUP};
use crate::sinks::{self, Sinks};
use crate::spans::Recorder;
use crate::stats::{self, write_bits, Digest};
use crate::{hydraulics_metrics, ratio, Budget, Deadline, Measured, Traced, Windows};

/// Scans of a 20-minute drill at the 2 s scan period.
pub const SCANS: usize = 600;
/// Groups generated per pool fill.
pub const POOL_GROUPS: usize = 32;
/// Groups per throughput and p50 window (256 drills, about 1.3 s).
pub const WINDOW_GROUPS: usize = 16;
/// Groups between host probes (about 0.3 s).
pub const PROBE_GROUPS: usize = 4;
/// Groups of a traced pass; the digest covers this many groups.
pub const TRACE_GROUPS: usize = 16;

/// Generated drills and the position in the drill stream.
pub struct State {
    gen: DrillGen,
    pool: VecDeque<Vec<DrillInput>>,
}

impl State {
    fn next_group(&mut self) -> Vec<DrillInput> {
        if self.pool.is_empty() {
            self.pool = (0..POOL_GROUPS).map(|_| self.gen.group()).collect();
        }
        self.pool.pop_front().expect("pool refilled above")
    }
}

/// Seed of the warm-up group. Every seed warms up on this same group: a
/// group's cost swings about 3× with how many slow drifts it holds, and
/// warming up on the seed's own first group made `setup_s` follow that.
const WARM_SEED: u64 = 0;

/// Input generation plus one untimed warm-up run of a fixed group, one
/// drill after another: on two workers the group's wall time moves by a
/// whole slow drill with how the drills happen to be shared out.
#[must_use]
pub fn setup(seed: u64) -> State {
    let mut gen = DrillGen::new(seed);
    let pool = (0..POOL_GROUPS).map(|_| gen.group()).collect();
    for d in DrillGen::new(WARM_SEED).group() {
        let mut noise = d.noise;
        let _ = sinks::run_drill(&d.drill, &mut noise, Sinks::disabled());
    }
    State { gen, pool }
}

/// The correctness gate of one drill: the full 600 scans, finite peaks,
/// and a clean finish when only sensors were faulted.
fn check(outcome: &DrillOutcome, nominal_plant: bool) -> bool {
    outcome.steps == SCANS
        && outcome.peak_junction.degrees().is_finite()
        && outcome.peak_agent.degrees().is_finite()
        && (!nominal_plant || outcome.clean())
}

fn absorb(digest: &mut Digest, o: &DrillOutcome) {
    let secs = |t: Option<rcs_units::Seconds>| t.map_or(f64::NAN, |s| s.seconds());
    digest.absorb(|h: &mut Fnv1a| {
        h.write_str(&o.design);
        write_bits(
            h,
            &[
                o.peak_junction.degrees(),
                o.peak_agent.degrees(),
                o.min_utilization,
                secs(o.time_to_alarm),
                secs(o.time_to_shutdown),
            ],
        );
        h.write_u64(o.steps as u64);
        h.write_u64(o.violation_steps as u64);
        h.write_u8(u8::from(o.shut_down));
    });
}

/// Scheduling figures of the parallel groups.
#[derive(Default)]
struct Groups {
    /// Σ per-drill host time, s.
    item_s: f64,
    /// Σ `par_map_indexed` wall time, s.
    wall_s: f64,
    /// Slowest ÷ mean drill time, per group.
    straggler: Vec<f64>,
}

/// The closed loop shared by the untraced run and every traced pass.
/// With `tracing`, each drill records into its own shard registry and
/// span sink, absorbed into the registry in drill order.
fn drive(
    state: &mut State,
    threads: usize,
    stop: impl Fn(u64, usize) -> bool,
    tracing: Option<(&Recorder, &Registry)>,
) -> (Measured, Groups) {
    let mut digest = Digest::new((TRACE_GROUPS * GROUP) as u64);
    let (mut ops, mut failed) = (0u64, 0u64);
    let mut timed = Duration::ZERO;
    let mut latencies_ms = Vec::new();
    let mut groups = Groups::default();
    let mut windows = Windows::new(WINDOW_GROUPS, PROBE_GROUPS);
    while !stop(ops, latencies_ms.len()) {
        let group = state.next_group();
        let nominal: Vec<bool> = group.iter().map(|d| d.nominal_plant).collect();
        let first = ops;
        let run = |i: usize, d: DrillInput, group_span: u64| {
            let mut noise = d.noise;
            match tracing {
                None => {
                    let t = Instant::now();
                    let out = sinks::run_drill(&d.drill, &mut noise, Sinks::disabled());
                    (out, t.elapsed().as_secs_f64(), None)
                }
                Some((rec, _)) => {
                    let shard = Registry::new();
                    let spans = SpanSink::new();
                    let sinks = Sinks {
                        obs: &shard,
                        spans: &spans,
                    };
                    let op = Some(first + i as u64);
                    let (out, took) = rec.time("drill.run", op, Some(group_span), |_| {
                        sinks::run_drill(&d.drill, &mut noise, sinks)
                    });
                    (out, took.as_secs_f64(), Some(shard.snapshot()))
                }
            }
        };
        let t = Instant::now();
        let results: Vec<(DrillOutcome, f64, Option<Snapshot>)> = match tracing {
            None => rcs_parallel::par_map_indexed(group, threads, |i, d| run(i, d, 0)),
            Some((rec, _)) => {
                rec.time("drill_fleet.group", None, None, |span| {
                    rcs_parallel::par_map_indexed(group, threads, |i, d| run(i, d, span))
                })
                .0
            }
        };
        let wall = t.elapsed();
        timed += wall;
        windows.add(results.len() as u64, wall.as_secs_f64());
        groups.wall_s += wall.as_secs_f64();
        let times: Vec<f64> = results.iter().map(|r| r.1).collect();
        groups.item_s += times.iter().sum::<f64>();
        groups.straggler.push(
            times.iter().copied().fold(0.0, f64::max) / stats::mean(&times).max(f64::MIN_POSITIVE),
        );
        for ((outcome, secs, shard), nominal_plant) in results.into_iter().zip(nominal) {
            if let (Some((_, obs)), Some(shard)) = (tracing, shard) {
                obs.absorb(&shard);
            }
            latencies_ms.push(secs * 1e3);
            if !check(&outcome, nominal_plant) {
                failed += 1;
            }
            absorb(&mut digest, &outcome);
            ops += 1;
        }
    }
    let (window_rates, probes) = windows.finish();
    let measured = Measured {
        ops,
        failed,
        timed,
        latencies_ms,
        window_rates,
        window_samples: WINDOW_GROUPS * GROUP,
        section_samples: GROUP,
        probes,
        digest: digest.value(),
        digest_ops: digest.ops(),
    };
    (measured, groups)
}

/// The untraced, time-bounded run on a prepared state.
#[must_use]
pub fn run(state: &mut State, budget: Budget) -> Measured {
    let deadline = Deadline::start(budget.seconds);
    let needed = (TRACE_GROUPS * GROUP) as u64;
    drive(
        state,
        budget.threads,
        |ops, samples| deadline.over(ops, needed, samples),
        None,
    )
    .0
}

/// The traced run: an untraced pass, a traced pass and a serial pass
/// over the same [`TRACE_GROUPS`] groups.
#[must_use]
pub fn traced(seed: u64, threads: usize) -> Traced {
    let stop = |ops: u64, _: usize| ops >= (TRACE_GROUPS * GROUP) as u64;
    let (untraced, _) = drive(&mut setup(seed), threads, stop, None);
    let obs = Registry::new();
    let rec = Recorder::new();
    let (traced, groups) = drive(&mut setup(seed), threads, stop, Some((&rec, &obs)));
    let (serial, _) = drive(&mut setup(seed), 1, stop, None);

    let snap = obs.snapshot();
    let drills = snap.counter("drill.runs");
    let scans = snap.counter("drill.steps");
    let work = obs.work_units();
    let mut metrics = vec![
        (
            "drill.us_per_scan",
            groups.item_s * 1e6 / scans.max(1) as f64,
        ),
        (
            "drill.relin_per_scan",
            ratio(snap.counter("drill.relinearizations"), scans),
        ),
        // Each scan integrates one explicit step of the two-node
        // chip/bath ODE.
        ("thermal.ode_steps_per_op", ratio(scans, drills)),
        (
            "immersion.fixed_point_iters_per_op",
            ratio(
                snap.counter("profile.immersion.fixed_point_iterations"),
                drills,
            ),
        ),
        (
            "parallel.speedup",
            serial.timed.as_secs_f64() / untraced.timed.as_secs_f64(),
        ),
        (
            "parallel.efficiency",
            groups.item_s / (threads as f64 * groups.wall_s),
        ),
        ("parallel.straggler_ratio", stats::mean(&groups.straggler)),
        (
            "parallel.dispatch_us_per_item",
            crate::dispatch_us_per_item(threads),
        ),
        ("obs.work_units_per_op", ratio(work, drills)),
        (
            "obs.ns_per_work_unit",
            untraced.timed.as_secs_f64() * 1e9 / work.max(1) as f64,
        ),
        (
            "obs.trace_overhead_frac",
            traced.timed.as_secs_f64() / untraced.timed.as_secs_f64() - 1.0,
        ),
    ];
    metrics.extend(hydraulics_metrics(&snap));

    let agree = untraced.digest == traced.digest && traced.digest == serial.digest;
    Traced {
        attempted: traced.ops,
        failed: traced.failed,
        correct: agree && untraced.failed + traced.failed + serial.failed == 0,
        metrics,
        spans: rec.spans(),
        digest: traced.digest,
    }
}
