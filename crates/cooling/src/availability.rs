//! Seeded Monte-Carlo availability estimation.
//!
//! Draws failure events for every [`FailureClass`] as a Poisson process over a service horizon and accumulates downtime
//! and hardware losses, turning §2's qualitative reliability comparison
//! into distributions.
//!
//! # Determinism contract
//!
//! The study is a pure function of `(classes, horizon, trials, seed)` at
//! **any** thread count. Trials are partitioned into fixed-size chunks
//! (`TRIALS_PER_CHUNK`, independent of the thread count); chunk `i`
//! draws from RNG stream `i` of `Rng::split_streams` (streams 2^128
//! steps apart, so they provably never overlap); and partial results are
//! reduced in chunk order. Scheduling chunks onto 1, 2 or 64 workers
//! therefore changes wall-clock time only — never a single bit of the
//! report.

use rcs_kernel::{Clock, Codec, SnapshotError};
use rcs_numeric::rng::Rng;
use rcs_numeric::stats::percentile;
use rcs_obs::span::SpanSink;
use rcs_obs::{Registry, Sinks};
use rcs_units::HOURS_PER_YEAR;

use crate::risk::FailureClass;

/// Trials per RNG stream/work item. Fixed — never derived from the
/// thread count — so the chunk → stream mapping is pinned by the seed
/// alone. 64 trials is coarse enough that pool overhead is noise and
/// fine enough that a 4000-trial study still fans out 63 ways.
pub(crate) const TRIALS_PER_CHUNK: usize = 64;

/// Result of one Monte-Carlo availability study.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityReport {
    /// Service horizon simulated, years.
    pub horizon_years: f64,
    /// Trials run.
    pub trials: usize,
    /// Mean availability (uptime fraction) across trials.
    pub mean_availability: f64,
    /// 5th percentile availability (a bad-luck deployment), nearest-rank.
    pub p05_availability: f64,
    /// Mean failure events per module-year.
    pub mean_events_per_year: f64,
    /// Mean hardware-loss events over the whole horizon.
    pub mean_hardware_losses: f64,
}

/// One chunk's contribution, reduced in chunk order.
struct ChunkOutcome {
    /// Per-trial availabilities, in trial order.
    availabilities: Vec<f64>,
    /// Failure events across the chunk (integer count, order-free).
    events: u64,
    /// Hardware-loss events across the chunk.
    losses: u64,
}

/// Panics, naming the class, on a non-finite class parameter — the
/// contract documented on [`McSession::advance`].
fn check_classes(classes: &[FailureClass]) {
    for class in classes {
        for (what, value) in [
            ("rate_per_year", class.rate_per_year),
            ("downtime_hours", class.consequence.downtime_hours),
            (
                "hardware_loss_probability",
                class.consequence.hardware_loss_probability,
            ),
        ] {
            assert!(
                value.is_finite(),
                "failure class {:?}: {what} is {value}, not finite",
                class.name
            );
        }
    }
}

/// Runs the trials of one chunk on its own RNG stream.
fn run_chunk(
    classes: &[FailureClass],
    horizon_years: f64,
    hours_total: f64,
    trials: usize,
    rng: &mut Rng,
) -> ChunkOutcome {
    let mut availabilities = Vec::with_capacity(trials);
    let mut events = 0u64;
    let mut losses = 0u64;
    for _ in 0..trials {
        let mut downtime = 0.0;
        for class in classes {
            // Poisson draw via exponential interarrival times.
            let rate = class.rate_per_year.max(0.0);
            if rate == 0.0 {
                continue;
            }
            let mut t = 0.0;
            loop {
                t += rng.exponential(rate);
                if t > horizon_years {
                    break;
                }
                events += 1;
                downtime += class.consequence.downtime_hours;
                if rng.gen_bool(class.consequence.hardware_loss_probability.clamp(0.0, 1.0)) {
                    losses += 1;
                }
            }
        }
        availabilities.push(1.0 - (downtime / hours_total).min(1.0));
    }
    ChunkOutcome {
        availabilities,
        events,
        losses,
    }
}

/// Runs a seeded Monte-Carlo availability study over the given failure
/// classes, on the default worker count (`rcs_parallel::thread_count`).
///
/// Each class is a Poisson process with its annual rate; every event costs
/// its class downtime and, with the class probability, a hardware loss.
/// Deterministic for a fixed seed at any thread count (see the module
/// docs for the chunking contract).
///
/// # Panics
///
/// Panics if `horizon_years` is not finite and positive, `trials` is
/// zero, or a class has a non-finite rate, downtime or hardware-loss
/// probability (see [`McSession::advance`]).
#[must_use]
pub fn monte_carlo(
    classes: &[FailureClass],
    horizon_years: f64,
    trials: usize,
    seed: u64,
) -> AvailabilityReport {
    monte_carlo_with_threads(
        classes,
        horizon_years,
        trials,
        seed,
        rcs_parallel::thread_count(),
        Sinks::disabled(),
    )
}

/// [`monte_carlo`] with an explicit worker count and telemetry. The
/// report — and every golden channel — is bit-identical for every
/// `threads` value; the determinism tests assert this across 1/2/4/7
/// workers.
///
/// - counters on `sinks.obs`: `mc.runs`, `mc.trials`, `mc.chunks`
///   (workload shape — a function of `trials` alone), `mc.events` and
///   `mc.hardware_losses` (the integer numerators behind the report's
///   `mean_events_per_year` and `mean_hardware_losses`, recorded per
///   chunk and merged in chunk order), plus the `parallel.*` map
///   counters;
/// - trace on `sinks.trace`: every trial pushes its availability into
///   the `mc.availability` channel with the global trial index as the
///   time axis, merged in chunk order.
///
/// # Panics
///
/// Panics if `horizon_years` is not finite and positive, `trials` is
/// zero, or a class parameter is not finite.
#[must_use]
pub fn monte_carlo_with_threads(
    classes: &[FailureClass],
    horizon_years: f64,
    trials: usize,
    seed: u64,
    threads: usize,
    sinks: Sinks<'_>,
) -> AvailabilityReport {
    let mut session = McSession::new(horizon_years, trials, seed, threads, sinks);
    while session.advance(classes, sinks, u64::MAX) > 0 {}
    session.finish()
}

/// [`monte_carlo_with_threads`] recording counters into `obs`. Kept
/// for `perfbench/src/sinks.rs`, its only caller.
///
/// # Panics
///
/// Panics if `horizon_years` is not finite and positive, `trials` is
/// zero, or a class parameter is not finite.
#[must_use]
pub fn monte_carlo_observed(
    classes: &[FailureClass],
    horizon_years: f64,
    trials: usize,
    seed: u64,
    threads: usize,
    obs: &Registry,
) -> AvailabilityReport {
    monte_carlo_with_threads(
        classes,
        horizon_years,
        trials,
        seed,
        threads,
        Sinks::counters(obs),
    )
}

/// Snapshot kind tag of [`McSession::checkpoint`] bytes.
pub(crate) const MC_SNAPSHOT_KIND: &str = "cooling.mc";

/// A resumable Monte-Carlo availability study: the chunked trial loop
/// hoisted onto the `rcs-kernel` stepping kernel, one kernel step per
/// 64-trial chunk.
///
/// The session owns the accumulated per-trial availabilities, event
/// tallies and the chunk [`Clock`]; the failure classes are passed into
/// every [`McSession::advance`] call as the immutable environment. RNG
/// streams are recomputed from the seed on every batch (chunk `i`
/// always draws from jumped stream `i`), so a checkpoint never stores a
/// stream mid-chunk — chunk granularity is the checkpoint granularity.
/// A resumed session finishes **bitwise** identically — report, golden
/// counters, trace — to one that was never interrupted, at any thread
/// count on either side of the split.
#[derive(Debug, Clone)]
pub struct McSession {
    horizon_years: f64,
    trials: usize,
    seed: u64,
    threads: usize,
    clock: Clock,
    /// Per-trial availabilities accumulated in chunk order (unsorted —
    /// the final sort happens in [`McSession::finish`]).
    availabilities: Vec<f64>,
    total_events: u64,
    total_losses: u64,
}

impl McSession {
    /// Prepares a study and records its golden workload shape
    /// (`mc.runs` / `mc.trials` / `mc.chunks` and the pool's map-shape
    /// counters) exactly once — however many batches the chunks are
    /// later advanced in.
    ///
    /// # Panics
    ///
    /// Panics if `horizon_years` is not finite and positive or `trials`
    /// is zero.
    #[must_use]
    pub fn new(
        horizon_years: f64,
        trials: usize,
        seed: u64,
        threads: usize,
        sinks: Sinks<'_>,
    ) -> Self {
        let obs = sinks.obs;
        assert!(
            horizon_years.is_finite() && horizon_years > 0.0,
            "horizon must be finite and positive"
        );
        assert!(trials > 0, "at least one trial required");
        let chunk_count = rcs_parallel::fixed_chunks(trials, TRIALS_PER_CHUNK).len();
        obs.inc("mc.runs");
        obs.add("mc.trials", trials as u64);
        obs.add("mc.chunks", chunk_count as u64);
        // The straight-through run is one pool map over every chunk;
        // batched resumption must not re-count the map shape.
        obs.inc("parallel.maps");
        obs.add("parallel.tasks", chunk_count as u64);
        Self {
            horizon_years,
            trials,
            seed,
            threads,
            clock: Clock::counted(chunk_count as u64),
            availabilities: Vec::with_capacity(trials),
            total_events: 0,
            total_losses: 0,
        }
    }

    /// Runs up to `max_chunks` of the remaining chunks as one pool
    /// batch, reducing shard telemetry and results in chunk order.
    /// Returns how many chunks ran (0 when the study is complete). The
    /// chunks record counters and trace samples but no spans.
    ///
    /// # Panics
    ///
    /// Panics, naming the class, if any class has a non-finite
    /// `rate_per_year`, `downtime_hours` or `hardware_loss_probability`
    /// — checked before the first draw, because an infinite rate never
    /// leaves the interarrival loop and a NaN probability has no
    /// Bernoulli draw. Finite values are clamped as before: a negative
    /// rate draws no events, a probability outside `[0, 1]` is clamped
    /// into it.
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
    pub fn advance(&mut self, classes: &[FailureClass], sinks: Sinks<'_>, max_chunks: u64) -> u64 {
        check_classes(classes);
        let mut indices = Vec::new();
        while (indices.len() as u64) < max_chunks {
            let Some(tick) = self.clock.tick() else { break };
            indices.push(tick.index as usize);
        }
        if indices.is_empty() {
            return 0;
        }
        // Fixed partition, one jumped stream per chunk: the work list is
        // a function of (trials, seed) only, recomputed per batch so
        // chunk i always draws from stream i.
        let chunks = rcs_parallel::fixed_chunks(self.trials, TRIALS_PER_CHUNK);
        let streams = Rng::seed_from_u64(self.seed).split_streams(chunks.len());
        let work: Vec<(core::ops::Range<usize>, Rng)> = chunks.into_iter().zip(streams).collect();
        let batch: Vec<(core::ops::Range<usize>, Rng)> = indices
            .iter()
            .map(|&i| {
                let (range, rng) = &work[i];
                (range.clone(), rng.clone())
            })
            .collect();

        let horizon_years = self.horizon_years;
        let hours_total = horizon_years * HOURS_PER_YEAR;
        let partials = rcs_parallel::par_map_shards(
            batch,
            self.threads,
            Sinks {
                spans: SpanSink::disabled(),
                ..sinks
            },
            // unprefixed: every chunk appends to the shared channels,
            // merged in chunk order
            |_| String::new(),
            |_, (range, mut rng), shard| {
                let outcome = run_chunk(classes, horizon_years, hours_total, range.len(), &mut rng);
                let Sinks {
                    obs: shard,
                    trace: shard_trace,
                    ..
                } = shard;
                shard.add("mc.events", outcome.events);
                shard.add("mc.hardware_losses", outcome.losses);
                // work accounting: one unit per simulated trial, plus one
                // per sampled Poisson event (the inner-loop cost driver)
                shard.work("mc.trials", range.len() as u64);
                shard.work("mc.events", outcome.events);
                if shard_trace.is_enabled() {
                    let ch =
                        shard_trace.channel("mc.availability", rcs_obs::trace::ChannelKind::Scalar);
                    for (offset, availability) in outcome.availabilities.iter().enumerate() {
                        shard_trace.record(ch, (range.start + offset) as f64, *availability);
                    }
                }
                outcome
            },
        );

        // Fixed-order reduction: chunk 0, chunk 1, ... regardless of
        // which worker finished first, so float accumulation order is
        // pinned.
        let ran = partials.len() as u64;
        for partial in partials {
            self.availabilities.extend(partial.availabilities);
            self.total_events += partial.events;
            self.total_losses += partial.losses;
        }
        ran
    }

    /// `true` once every chunk has run.
    #[must_use]
    pub(crate) fn is_finished(&self) -> bool {
        self.clock.is_finished()
    }

    /// Reduces the accumulated trials into the final report.
    ///
    /// # Panics
    ///
    /// Panics if called before every chunk has run.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn finish(self) -> AvailabilityReport {
        assert!(
            self.is_finished(),
            "finish() before all chunks ran: {} of {}",
            self.availabilities.len(),
            self.trials
        );
        let mut availabilities = self.availabilities;
        // total order even under NaN: a poisoned trial would sort to the
        // top deterministically instead of leaving the percentile rank
        // dependent on the comparison sequence. Values equal under
        // `total_cmp` share their bits, so the unstable sort yields the
        // same array as a stable one.
        availabilities.sort_unstable_by(f64::total_cmp);
        let trials = self.trials as f64;
        let mean = availabilities.iter().sum::<f64>() / trials;
        let p05 = percentile(&availabilities, 0.05);
        AvailabilityReport {
            horizon_years: self.horizon_years,
            trials: self.trials,
            mean_availability: mean,
            p05_availability: p05,
            mean_events_per_year: self.total_events as f64 / (trials * self.horizon_years),
            mean_hardware_losses: self.total_losses as f64 / trials,
        }
    }

    /// Seals the study state — parameters, chunk clock, accumulated
    /// trials and tallies — plus the contents of `sinks` (the span
    /// sink's open stack included) into versioned snapshot bytes.
    #[must_use]
    pub fn checkpoint(&self, sinks: Sinks<'_>) -> Vec<u8> {
        let mut session = self.clone();
        rcs_kernel::seal_session(MC_SNAPSHOT_KIND, sinks, |c| session.layout(c))
    }

    /// Reconstructs a session from [`McSession::checkpoint`] bytes,
    /// restoring the captured telemetry into the (fresh) `sinks`. The
    /// thread count is *not* restored — pass the current one; the study
    /// is bit-identical at any value.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on corrupted or truncated bytes, a snapshot
    /// of a different kind, or study parameters [`McSession::new`]
    /// refuses.
    pub fn resume(bytes: &[u8], threads: usize, sinks: Sinks<'_>) -> Result<Self, SnapshotError> {
        let mut session = Self {
            horizon_years: 0.0,
            trials: 0,
            seed: 0,
            threads,
            clock: Clock::counted(0),
            availabilities: Vec::new(),
            total_events: 0,
            total_losses: 0,
        };
        rcs_kernel::open_session(MC_SNAPSHOT_KIND, bytes, sinks, |c| session.layout(c))?;
        Ok(session)
    }

    /// The one wire layout of a study — parameters, chunk clock,
    /// accumulated trials and tallies — run by both checkpoint and
    /// resume. Decoding rejects the parameters [`McSession::new`]
    /// refuses: an infinite or NaN horizon would never end a trial.
    fn layout(&mut self, c: &mut Codec<'_>) -> Result<(), SnapshotError> {
        c.f64(&mut self.horizon_years)?;
        c.usize(&mut self.trials)?;
        let (trials, horizon_years) = (self.trials, self.horizon_years);
        let horizon_ok = horizon_years.is_finite() && horizon_years > 0.0;
        c.ensure(trials > 0 && horizon_ok, || {
            format!("invalid study parameters: {trials} trials over {horizon_years} years")
        })?;
        c.u64(&mut self.seed)?;
        // Stored, but resume keeps the caller's worker count.
        c.u64(&mut (self.threads as u64))?;
        self.clock.layout(c)?;
        c.vec(&mut self.availabilities, Codec::f64)?;
        c.u64(&mut self.total_events)?;
        c.u64(&mut self.total_losses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::{ColdPlateLoop, CoolingArchitecture, ImmersionBath};
    use crate::risk;

    #[test]
    fn deterministic_for_a_seed() {
        let classes = risk::failure_classes(&CoolingArchitecture::Immersion(
            ImmersionBath::skat_default(),
        ));
        let a = monte_carlo(&classes, 5.0, 500, 42);
        let b = monte_carlo(&classes, 5.0, 500, 42);
        assert_eq!(a, b);
        let c = monte_carlo(&classes, 5.0, 500, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn identical_at_every_thread_count() {
        let classes = risk::failure_classes(&CoolingArchitecture::ColdPlate(
            ColdPlateLoop::per_chip_plates(96),
        ));
        let serial = monte_carlo_with_threads(&classes, 5.0, 700, 42, 1, Sinks::disabled());
        for threads in [2, 4, 7] {
            let parallel =
                monte_carlo_with_threads(&classes, 5.0, 700, 42, threads, Sinks::disabled());
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn partial_final_chunk_is_handled() {
        // 70 trials = one full 64-trial chunk + one 6-trial chunk.
        let classes = risk::failure_classes(&CoolingArchitecture::ColdPlate(
            ColdPlateLoop::per_chip_plates(96),
        ));
        let r = monte_carlo(&classes, 5.0, 70, 9);
        assert_eq!(r.trials, 70);
        assert!(r.mean_availability > 0.9 && r.mean_availability <= 1.0);
    }

    #[test]
    fn event_rate_matches_the_analytic_sum() {
        let classes = risk::failure_classes(&CoolingArchitecture::ColdPlate(
            ColdPlateLoop::per_chip_plates(96),
        ));
        let analytic: f64 = classes.iter().map(|c| c.rate_per_year).sum();
        let report = monte_carlo(&classes, 5.0, 2000, 7);
        let rel = (report.mean_events_per_year - analytic).abs() / analytic;
        assert!(
            rel < 0.05,
            "MC {} vs analytic {analytic}",
            report.mean_events_per_year
        );
    }

    #[test]
    fn immersion_availability_beats_cold_plates() {
        let im = monte_carlo(
            &risk::failure_classes(&CoolingArchitecture::Immersion(
                ImmersionBath::skat_default(),
            )),
            5.0,
            2000,
            11,
        );
        let cp = monte_carlo(
            &risk::failure_classes(&CoolingArchitecture::ColdPlate(
                ColdPlateLoop::per_chip_plates(96),
            )),
            5.0,
            2000,
            11,
        );
        assert!(im.mean_availability > cp.mean_availability);
        assert!(im.mean_hardware_losses < 1e-9);
        assert!(cp.mean_hardware_losses > 1.0); // ~0.45/yr x 5 yr
                                                // both are still "available" systems, not toys
        assert!(im.mean_availability > 0.999);
        assert!(cp.mean_availability > 0.98);
    }

    #[test]
    fn observed_counters_are_the_integer_numerators_of_the_report() {
        let classes = risk::failure_classes(&CoolingArchitecture::ColdPlate(
            ColdPlateLoop::per_chip_plates(96),
        ));
        let obs = Registry::new();
        let report = monte_carlo_with_threads(&classes, 5.0, 700, 42, 4, Sinks::counters(&obs));
        let snap = obs.snapshot();
        assert_eq!(snap.counter("mc.runs"), 1);
        assert_eq!(snap.counter("mc.trials"), 700);
        assert_eq!(snap.counter("mc.chunks"), 11); // ceil(700/64)
        let events = snap.counter("mc.events");
        let losses = snap.counter("mc.hardware_losses");
        assert!(events > 0);
        let events_per_year = events as f64 / (700.0 * 5.0);
        assert!((events_per_year - report.mean_events_per_year).abs() < 1e-12);
        let mean_losses = losses as f64 / 700.0;
        assert!((mean_losses - report.mean_hardware_losses).abs() < 1e-12);
    }

    #[test]
    fn observed_telemetry_is_identical_at_every_thread_count() {
        let classes = risk::failure_classes(&CoolingArchitecture::Immersion(
            ImmersionBath::skat_default(),
        ));
        let run = |threads: usize| {
            let obs = Registry::new();
            let report =
                monte_carlo_with_threads(&classes, 5.0, 500, 42, threads, Sinks::counters(&obs));
            (report, obs.snapshot())
        };
        let (ref_report, ref_snap) = run(1);
        for threads in [2, 4, 7] {
            let (report, snap) = run(threads);
            assert_eq!(report, ref_report, "threads = {threads}");
            assert_eq!(snap, ref_snap, "threads = {threads}");
        }
    }

    #[test]
    fn unobserved_entry_point_is_bit_identical_to_observed() {
        let classes = risk::failure_classes(&CoolingArchitecture::ColdPlate(
            ColdPlateLoop::per_chip_plates(96),
        ));
        let plain = monte_carlo_with_threads(&classes, 5.0, 300, 9, 2, Sinks::disabled());
        let observed =
            monte_carlo_with_threads(&classes, 5.0, 300, 9, 2, Sinks::counters(&Registry::new()));
        assert_eq!(plain, observed);
    }

    #[test]
    fn p05_is_no_better_than_the_mean() {
        let classes = risk::failure_classes(&CoolingArchitecture::ColdPlate(
            ColdPlateLoop::per_chip_plates(96),
        ));
        let r = monte_carlo(&classes, 5.0, 1000, 3);
        assert!(r.p05_availability <= r.mean_availability);
    }

    #[test]
    fn mc_session_checkpoint_resume_is_bitwise_identical() {
        use rcs_obs::trace::TraceRecorder;

        let classes = risk::failure_classes(&CoolingArchitecture::ColdPlate(
            ColdPlateLoop::per_chip_plates(96),
        ));
        // 700 trials = 11 chunks (10 full + one 60-trial tail).
        let obs_ref = Registry::new();
        let trace_ref = TraceRecorder::new();
        let sinks_ref = Sinks {
            obs: &obs_ref,
            trace: &trace_ref,
            ..Sinks::disabled()
        };
        let reference = monte_carlo_with_threads(&classes, 5.0, 700, 42, 4, sinks_ref);

        for split in [0u64, 1, 5, 10, 11] {
            let obs_a = Registry::new();
            let trace_a = TraceRecorder::new();
            let sinks_a = Sinks {
                obs: &obs_a,
                trace: &trace_a,
                ..Sinks::disabled()
            };
            let mut session = McSession::new(5.0, 700, 42, 2, Sinks::counters(&obs_a));
            session.advance(&classes, sinks_a, split);
            let bytes = session.checkpoint(sinks_a);

            // Resume on a *different* worker count: the chunk → stream
            // mapping is thread-free, so the split must stay invisible.
            let obs_b = Registry::new();
            let trace_b = TraceRecorder::new();
            let sinks_b = Sinks {
                obs: &obs_b,
                trace: &trace_b,
                ..Sinks::disabled()
            };
            let mut resumed = McSession::resume(&bytes, 7, sinks_b).expect("snapshot opens");
            while resumed.advance(&classes, sinks_b, 3) > 0 {}
            assert!(resumed.is_finished());
            let report = resumed.finish();

            assert_eq!(report, reference, "report diverged at split {split}");
            assert_eq!(
                obs_b.snapshot(),
                obs_ref.snapshot(),
                "golden counters diverged at split {split}"
            );
            assert_eq!(
                trace_b.snapshot(),
                trace_ref.snapshot(),
                "traces diverged at split {split}"
            );
        }
    }

    #[test]
    fn corrupt_mc_snapshot_is_a_structured_error() {
        let classes = risk::failure_classes(&CoolingArchitecture::ColdPlate(
            ColdPlateLoop::per_chip_plates(96),
        ));
        let obs = Registry::new();
        let mut session = McSession::new(5.0, 200, 9, 2, Sinks::counters(&obs));
        session.advance(&classes, Sinks::counters(&obs), 2);
        let bytes = session.checkpoint(Sinks::counters(&obs));

        let mut flipped = bytes.clone();
        flipped[bytes.len() / 2] ^= 0x01;
        assert!(McSession::resume(&flipped, 2, Sinks::counters(&Registry::new())).is_err());
        for cut in [0, 7, bytes.len() - 3] {
            assert!(
                McSession::resume(&bytes[..cut], 2, Sinks::counters(&Registry::new())).is_err(),
                "truncated at {cut}"
            );
        }
    }

    /// The immersion classes with one parameter of the named class
    /// replaced.
    fn poisoned(edit: impl FnOnce(&mut FailureClass)) -> Vec<FailureClass> {
        let mut classes = risk::failure_classes(&CoolingArchitecture::Immersion(
            ImmersionBath::skat_default(),
        ));
        edit(&mut classes[0]);
        classes
    }

    #[test]
    #[should_panic(expected = "rate_per_year is inf, not finite")]
    fn an_infinite_rate_is_rejected_by_the_class_check() {
        // Only the check runs: the trial loop would never return.
        check_classes(&poisoned(|c| c.rate_per_year = f64::INFINITY));
    }

    #[test]
    #[should_panic(
        expected = "failure class \"facility cooling trip (chiller/CRAC)\": rate_per_year is NaN"
    )]
    fn a_nan_rate_panics_instead_of_counting_as_zero() {
        let classes = poisoned(|c| c.rate_per_year = f64::NAN);
        let _ = monte_carlo_with_threads(&classes, 5.0, 70, 1, 1, Sinks::disabled());
    }

    #[test]
    #[should_panic(expected = "hardware_loss_probability is NaN")]
    fn a_nan_loss_probability_panics_before_the_first_draw() {
        let classes = poisoned(|c| c.consequence.hardware_loss_probability = f64::NAN);
        let _ = monte_carlo_with_threads(&classes, 5.0, 70, 1, 2, Sinks::disabled());
    }

    #[test]
    #[should_panic(expected = "downtime_hours is -inf")]
    fn a_non_finite_downtime_panics() {
        let classes = poisoned(|c| c.consequence.downtime_hours = f64::NEG_INFINITY);
        let _ = monte_carlo_with_threads(&classes, 5.0, 70, 1, 1, Sinks::disabled());
    }

    #[test]
    fn finite_out_of_range_parameters_keep_their_clamping() {
        let reference = monte_carlo_with_threads(
            &poisoned(|c| c.rate_per_year = 0.0),
            5.0,
            300,
            4,
            1,
            Sinks::disabled(),
        );
        let negative = monte_carlo_with_threads(
            &poisoned(|c| c.rate_per_year = -3.0),
            5.0,
            300,
            4,
            1,
            Sinks::disabled(),
        );
        assert_eq!(negative, reference, "a negative rate draws no events");
        let clamped = poisoned(|c| c.consequence.hardware_loss_probability = 7.0);
        let r = monte_carlo_with_threads(&clamped, 5.0, 300, 4, 1, Sinks::disabled());
        let events_per_trial = r.mean_events_per_year * 5.0;
        assert!(r.mean_hardware_losses > 0.0 && r.mean_hardware_losses <= events_per_trial);
    }

    #[test]
    fn small_samples_use_nearest_rank_not_the_minimum() {
        // Regression for the truncation bug: with 19 trials the old code
        // indexed (19 * 0.05) as usize = 0 — always the minimum — even
        // though that happens to coincide with nearest-rank for n < 21.
        // Assert the helper is actually wired in: with 40 trials the
        // nearest-rank p05 is the 2nd-smallest, not the minimum.
        let classes = risk::failure_classes(&CoolingArchitecture::ColdPlate(
            ColdPlateLoop::per_chip_plates(96),
        ));
        let r = monte_carlo(&classes, 5.0, 40, 5);
        // reconstruct the sorted per-trial availabilities via a 1-chunk
        // rerun of the same seed and compare ranks
        let chunks = rcs_parallel::fixed_chunks(40, TRIALS_PER_CHUNK);
        assert_eq!(chunks.len(), 1);
        let mut rng = Rng::seed_from_u64(5);
        let mut chunk = run_chunk(&classes, 5.0, 5.0 * HOURS_PER_YEAR, 40, &mut rng);
        chunk.availabilities.sort_by(f64::total_cmp);
        assert_eq!(r.p05_availability, chunk.availabilities[1]);
    }

    #[test]
    #[should_panic(expected = "horizon must be finite and positive")]
    fn an_infinite_horizon_is_refused_up_front() {
        // No trial over an infinite horizon ever draws past its end.
        let _ = McSession::new(f64::INFINITY, 100, 7, 1, Sinks::disabled());
    }

    #[test]
    fn a_snapshot_whose_horizon_no_trial_can_reach_is_malformed() {
        for horizon in [f64::INFINITY, f64::NAN, 0.0, -2.0] {
            let mut session = McSession::new(2.0, 100, 7, 1, Sinks::disabled());
            session.horizon_years = horizon;
            let bytes = session.checkpoint(Sinks::disabled());
            assert!(
                matches!(
                    McSession::resume(&bytes, 1, Sinks::disabled()),
                    Err(SnapshotError::Malformed(_))
                ),
                "horizon {horizon} resumed"
            );
        }
    }
}
