//! `query_mix`: the design-query service under realistic reuse.
//!
//! One closed-loop client parses 16 generated specs with
//! `DesignQuery::parse` and sends them to one long-lived
//! `QueryEngine::new(128)` through `run_batch`. An op is a request; its
//! latency is its batch's turnaround, one sample per batch.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use rcs_cooling::{risk, CoolingArchitecture};
use rcs_core::ImmersionModel;
use rcs_devices::OperatingPoint;
use rcs_numeric::hash::Fnv1a;
use rcs_numeric::rng::Rng;
use rcs_obs::span::SpanSink;
use rcs_obs::Registry;
use rcs_query::{DesignQuery, DesignVerdict, QueryEngine, QueryOutcome, HORIZON_YEARS};

use crate::gen::{hot_points, QueryMixGen, GROUP};
use crate::sinks::{self, Sinks};
use crate::spans::Recorder;
use crate::stats::{self, write_bits, Digest};
use crate::{hydraulics_metrics, ratio, Budget, Deadline, Measured, Traced, Windows};

/// Verdicts the engine's FIFO cache holds.
pub const CACHE_CAPACITY: usize = 128;
/// Specs generated per pool fill.
pub const POOL: usize = 1 << 15;
/// Batches of a traced pass; the digest covers this many batches.
pub const TRACE_BATCHES: usize = 256;
/// Batches per throughput and p50 window (about 1.5 s).
pub const WINDOW_BATCHES: usize = 1000;
/// Batches between host probes (about 0.2 s).
pub const PROBE_BATCHES: usize = 128;
/// One request in this many is re-solved uncached and compared.
pub const RESOLVE_ONE_IN: usize = 50;
/// Distinct misses replayed layer by layer after the traced pass.
const REPLAY_MAX: usize = 400;
const CHECK_SALT: u64 = 0x4348_4543_4b5f_5153;

/// Generated specs, the engine, and the position in the spec stream.
pub struct State {
    gen: QueryMixGen,
    pool: Vec<String>,
    cursor: usize,
    engine: QueryEngine,
}

impl State {
    fn next_batch(&mut self) -> Vec<String> {
        if self.cursor + GROUP > self.pool.len() {
            self.pool = self.gen.specs(POOL);
            self.cursor = 0;
        }
        let batch = self.pool[self.cursor..self.cursor + GROUP].to_vec();
        self.cursor += GROUP;
        batch
    }
}

fn parse(specs: &[String]) -> (Vec<DesignQuery>, u64) {
    let mut queries = Vec::with_capacity(specs.len());
    let mut failed = 0;
    for spec in specs {
        match DesignQuery::parse(spec) {
            Ok(q) => queries.push(q),
            Err(_) => failed += 1,
        }
    }
    (queries, failed)
}

/// Input generation, engine construction and the warm-up prefix: batches
/// run untimed until the cache first fills.
#[must_use]
pub fn setup(seed: u64, threads: usize) -> State {
    let mut gen = QueryMixGen::new(seed);
    let pool = gen.specs(POOL);
    let mut state = State {
        gen,
        pool,
        cursor: 0,
        engine: QueryEngine::new(CACHE_CAPACITY),
    };
    while state.engine.cache().len() < CACHE_CAPACITY {
        let (queries, _) = parse(&state.next_batch());
        sinks::run_batch(&mut state.engine, &queries, threads, Sinks::disabled());
    }
    state
}

/// The correctness gate: one `Ok` outcome per request, every repeat
/// bitwise equal to the verdict first served for its hash, and a seeded
/// 1-in-50 sample equal to an uncached re-solve. Only hot points can
/// repeat, so only their first verdicts are kept; memory then stays the
/// same however many requests a run completes.
struct Checker {
    first: HashMap<u64, Option<DesignVerdict>>,
    rng: Rng,
}

impl Checker {
    fn new(seed: u64) -> Self {
        let first = hot_points()
            .iter()
            .filter_map(|spec| DesignQuery::parse(spec).ok())
            .map(|q| (q.canonical_hash(), None))
            .collect();
        Self {
            first,
            rng: Rng::seed_from_u64(seed ^ CHECK_SALT),
        }
    }

    fn check(&mut self, query: &DesignQuery, outcome: &QueryOutcome) -> bool {
        let resolve = self.rng.gen_range(0..RESOLVE_ONE_IN) == 0;
        let QueryOutcome::Ok(verdict) = outcome else {
            return false;
        };
        let hash = query.canonical_hash();
        if verdict.query_hash != hash {
            return false;
        }
        let repeat_ok = match self.first.get_mut(&hash) {
            Some(Some(first)) => first.bitwise_eq(verdict),
            Some(slot) => {
                *slot = Some(verdict.clone());
                true
            }
            None => true,
        };
        let resolve_ok = !resolve
            || sinks::solve_query(query, Sinks::disabled()).is_ok_and(|v| v.bitwise_eq(verdict));
        repeat_ok && resolve_ok
    }
}

fn absorb(digest: &mut Digest, outcome: &QueryOutcome) {
    digest.absorb(|h: &mut Fnv1a| match outcome.verdict() {
        Some(v) => {
            h.write_u8(u8::from(outcome.is_ok()));
            h.write_u64(v.query_hash);
            write_bits(
                h,
                &[
                    v.junction_c,
                    v.coolant_hot_c,
                    v.coolant_cold_c,
                    v.total_heat_w,
                    v.cooling_overhead,
                    v.availability_mean,
                    v.availability_p05,
                    v.annual_energy_kwh,
                ],
            );
            h.write_u8(u8::from(v.compliant));
        }
        None => h.write_u8(2),
    });
}

/// Traced-pass state: the span store, the program's sinks, per-request
/// layer timings and the distinct misses to replay.
struct Tracing<'a> {
    rec: &'a Recorder,
    sinks: Sinks<'a>,
    parse_s: Vec<f64>,
    lookup_s: Vec<f64>,
    misses: Vec<(u64, DesignQuery)>,
}

/// One batch with per-layer spans: parse and shadow lookup per request,
/// then the engine call. Returns the parsed queries, parse failures and
/// outcomes.
fn traced_batch(
    engine: &mut QueryEngine,
    specs: &[String],
    batch: u64,
    threads: usize,
    tr: &mut Tracing<'_>,
) -> (Vec<DesignQuery>, u64, Vec<QueryOutcome>) {
    let rec = tr.rec;
    let op = Some(batch);
    rec.time("query_mix.batch", op, None, |root| {
        let mut queries = Vec::with_capacity(specs.len());
        let mut failed = 0;
        for spec in specs {
            let (parsed, d) = rec.time("query.parse", op, Some(root), |_| DesignQuery::parse(spec));
            tr.parse_s.push(d.as_secs_f64());
            match parsed {
                Ok(q) => queries.push(q),
                Err(_) => failed += 1,
            }
        }
        let mut batch_misses = HashSet::new();
        for q in &queries {
            let ((hash, hit), d) = rec.time("query.lookup", op, Some(root), |_| {
                let hash = q.canonical_hash();
                (hash, engine.cache().lookup(hash, q).is_some())
            });
            tr.lookup_s.push(d.as_secs_f64());
            if !hit && batch_misses.insert(hash) {
                tr.misses.push((batch, q.clone()));
            }
        }
        let program_sinks = tr.sinks;
        let (outcomes, _) = rec.time("query.run_batch", op, Some(root), |_| {
            sinks::run_batch(engine, &queries, threads, program_sinks)
        });
        (queries, failed, outcomes)
    })
    .0
}

/// The closed loop shared by the untraced run and every traced pass.
fn drive(
    state: &mut State,
    seed: u64,
    threads: usize,
    stop: impl Fn(u64, usize) -> bool,
    mut tracing: Option<&mut Tracing<'_>>,
) -> Measured {
    let mut checker = Checker::new(seed);
    let mut digest = Digest::new((TRACE_BATCHES * GROUP) as u64);
    let (mut ops, mut failed, mut batches) = (0u64, 0u64, 0u64);
    let mut timed = Duration::ZERO;
    let mut latencies_ms = Vec::new();
    let mut windows = Windows::new(WINDOW_BATCHES, PROBE_BATCHES);
    while !stop(ops, latencies_ms.len()) {
        let specs = state.next_batch();
        let t = Instant::now();
        let (queries, parse_failed, outcomes) = match tracing.as_deref_mut() {
            None => {
                let (queries, parse_failed) = parse(&specs);
                let outcomes =
                    sinks::run_batch(&mut state.engine, &queries, threads, Sinks::disabled());
                (queries, parse_failed, outcomes)
            }
            Some(tr) => traced_batch(&mut state.engine, &specs, batches, threads, tr),
        };
        let dt = t.elapsed();
        timed += dt;
        latencies_ms.push(dt.as_secs_f64() * 1e3);
        windows.add(specs.len() as u64, dt.as_secs_f64());
        batches += 1;
        ops += specs.len() as u64;
        failed += parse_failed;
        if outcomes.len() != queries.len() {
            failed += queries.len() as u64;
            continue;
        }
        for (query, outcome) in queries.iter().zip(&outcomes) {
            if !checker.check(query, outcome) {
                failed += 1;
            }
            absorb(&mut digest, outcome);
        }
    }
    let (window_rates, probes) = windows.finish();
    Measured {
        ops,
        failed,
        timed,
        latencies_ms,
        window_rates,
        window_samples: WINDOW_BATCHES,
        section_samples: 1,
        probes,
        digest: digest.value(),
        digest_ops: digest.ops(),
    }
}

/// The untraced, time-bounded run on a prepared state.
#[must_use]
pub fn run(state: &mut State, seed: u64, budget: Budget) -> Measured {
    let deadline = Deadline::start(budget.seconds);
    let needed = (TRACE_BATCHES * GROUP) as u64;
    drive(
        state,
        seed,
        budget.threads,
        |ops, samples| deadline.over(ops, needed, samples),
        None,
    )
}

/// Layer-by-layer timings of the distinct misses, replayed uncached:
/// the whole `solve_query`, then its immersion solve and its serial
/// Monte-Carlo alone.
struct Replay {
    solve_ms: Vec<f64>,
    immersion_us: Vec<f64>,
    mc_s: f64,
    mc_trials: u64,
}

fn replay(rec: &Recorder, misses: &[(u64, DesignQuery)]) -> Replay {
    let step = misses.len().div_ceil(REPLAY_MAX).max(1);
    let mut out = Replay {
        solve_ms: Vec::new(),
        immersion_us: Vec::new(),
        mc_s: 0.0,
        mc_trials: 0,
    };
    let off = Sinks::disabled();
    for (batch, q) in misses.iter().step_by(step) {
        let op = Some(*batch);
        let (_, d) = rec.time("query.solve_query", op, None, |_| {
            sinks::solve_query(q, off)
        });
        out.solve_ms.push(d.as_secs_f64() * 1e3);
        let bath = q.bath.bath_with(q.coolant);
        let model = ImmersionModel::new(q.family.module(), bath.clone())
            .with_operating_point(OperatingPoint::at_utilization(q.utilization));
        let (_, d) = rec.time("immersion.solve_robust", op, None, |_| {
            sinks::solve_immersion(&model, off)
        });
        out.immersion_us.push(d.as_secs_f64() * 1e6);
        let classes = risk::failure_classes(&CoolingArchitecture::Immersion(bath));
        let (_, d) = rec.time("availability.monte_carlo", op, None, |_| {
            sinks::monte_carlo(&classes, HORIZON_YEARS, q.trials as usize, q.seed, off)
        });
        out.mc_s += d.as_secs_f64();
        out.mc_trials += u64::from(q.trials);
    }
    out
}

/// The traced run: an untraced pass, a traced pass and a serial pass
/// over the same [`TRACE_BATCHES`] batches, then a replay of the traced
/// pass's distinct misses.
#[must_use]
pub fn traced(seed: u64, threads: usize) -> Traced {
    let stop = |ops: u64, _: usize| ops >= (TRACE_BATCHES * GROUP) as u64;
    let untraced = drive(&mut setup(seed, threads), seed, threads, stop, None);

    let obs = Registry::new();
    let span_sink = SpanSink::new();
    let rec = Recorder::new();
    let mut tr = Tracing {
        rec: &rec,
        sinks: Sinks {
            obs: &obs,
            spans: &span_sink,
        },
        parse_s: Vec::new(),
        lookup_s: Vec::new(),
        misses: Vec::new(),
    };
    let traced = drive(
        &mut setup(seed, threads),
        seed,
        threads,
        stop,
        Some(&mut tr),
    );
    let serial = drive(&mut setup(seed, 1), seed, 1, stop, None);
    let replayed = replay(&rec, &tr.misses);

    let snap = obs.snapshot();
    let requests = snap.counter("query.requests");
    let work = obs.work_units();
    let mut metrics = vec![
        (
            "query.hit_ratio",
            ratio(snap.counter("query.cache.hits"), requests),
        ),
        (
            "query.coalesced_per_req",
            ratio(snap.counter("query.batch.coalesced"), requests),
        ),
        (
            "query.evictions",
            snap.counter("query.cache.evictions") as f64,
        ),
        ("query.parse_us", stats::mean(&tr.parse_s) * 1e6),
        ("query.lookup_us", stats::mean(&tr.lookup_s) * 1e6),
        (
            "query.miss_solve_ms_p50",
            stats::percentile(&replayed.solve_ms, 0.5),
        ),
        (
            "query.miss_solve_ms_p99",
            stats::percentile(&replayed.solve_ms, 0.99),
        ),
        (
            "immersion.solve_robust_us_p50",
            stats::percentile(&replayed.immersion_us, 0.5),
        ),
        (
            "immersion.fixed_point_iters_per_op",
            ratio(
                snap.counter("profile.immersion.fixed_point_iterations"),
                requests,
            ),
        ),
        (
            "availability.mc_us_per_trial",
            replayed.mc_s * 1e6 / replayed.mc_trials.max(1) as f64,
        ),
        (
            "availability.mc_trials_per_op",
            ratio(snap.counter("profile.mc.trials"), requests),
        ),
        (
            "parallel.speedup",
            serial.timed.as_secs_f64() / untraced.timed.as_secs_f64(),
        ),
        (
            "parallel.dispatch_us_per_item",
            crate::dispatch_us_per_item(threads),
        ),
        ("obs.work_units_per_op", ratio(work, requests)),
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
