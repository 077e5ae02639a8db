//! **E18** — the design-query service exercised end to end.
//!
//! A fixed family × utilization grid (plus two intentionally duplicated
//! requests) is pushed through one [`QueryEngine`] three times, with a
//! cache deliberately too small for the grid. The first round is all
//! misses, the repeats are a deterministic mix of hits and re-solves of
//! whatever FIFO eviction dropped, and the per-round counter table makes
//! that schedule a printed artifact. The `profile.query.*` work counters
//! land in the run manifest, so the committed profile golden pins the
//! hit/miss/eviction ratio of this experiment exactly.

use rcs_core::experiments::Table;
use rcs_obs::Sinks;

use crate::{BathVariant, CoolantChoice, DesignQuery, DeviceFamily, QueryEngine};

/// Monte-Carlo seed shared by every query of the grid.
pub const SEED: u64 = 20210923;

/// Cache capacity — deliberately smaller than the 12-point grid, so
/// every round evicts.
pub const CAPACITY: usize = 8;

/// How many times the same batch is replayed.
pub const ROUNDS: usize = 3;

/// Availability trial budget per query.
pub const TRIALS: u32 = 160;

/// The E18 request batch: four module generations at three utilization
/// levels in the SRC dielectric (SKAT+ module in the SKAT+ bath), plus
/// two duplicated requests that the scheduler must coalesce.
#[must_use]
pub fn batch() -> Vec<DesignQuery> {
    let mut out = Vec::new();
    for family in [
        DeviceFamily::Rigel2,
        DeviceFamily::Taygeta,
        DeviceFamily::Skat,
        DeviceFamily::SkatPlus,
    ] {
        let bath = if family == DeviceFamily::SkatPlus {
            BathVariant::SkatPlus
        } else {
            BathVariant::Skat
        };
        for utilization in [0.60, 0.85, 1.00] {
            out.push(DesignQuery {
                family,
                coolant: CoolantChoice::SrcDielectric,
                bath,
                utilization,
                trials: TRIALS,
                seed: SEED,
            });
        }
    }
    // In-batch duplicates: same content address, one solve.
    out.push(out[0].clone());
    out.push(out[1].clone());
    out
}

/// Runs the experiment: [`ROUNDS`] replays of [`batch`] through one
/// engine, returning the verdict grid (from the final, cache-mixed
/// round — bit-identical to the first by the determinism contract) and
/// the per-round cache-behaviour table. On `sinks.spans` each replay
/// round runs inside a `round` span whose `query.batch` child carries
/// the per-request `req.<hash>` spans.
///
/// # Panics
///
/// Panics if any grid point fails to converge — every E18 point is a
/// known-good immersion design.
#[must_use]
pub fn run(sinks: Sinks<'_>) -> Vec<Table> {
    let Sinks { obs, spans, .. } = sinks;
    let queries = batch();
    let threads = rcs_parallel::thread_count();
    let mut engine = QueryEngine::new(CAPACITY);

    let mut round_rows = Vec::new();
    let mut last = Vec::new();
    let mut prev = obs.snapshot();
    for round in 1..=ROUNDS {
        spans.enter("round", obs);
        last = engine
            .run_batch(&queries, threads, sinks)
            .into_iter()
            .map(|outcome| match outcome {
                crate::QueryOutcome::Ok(verdict) => verdict,
                other => panic!("E18 design points converge exactly, got {other:?}"),
            })
            .collect();
        let snap = obs.snapshot();
        let delta = |name: &str| (snap.counter(name) - prev.counter(name)).to_string();
        round_rows.push(vec![
            round.to_string(),
            delta("query.requests"),
            delta("query.cache.hits"),
            delta("query.cache.misses"),
            delta("query.batch.coalesced"),
            delta("query.cache.evictions"),
            engine.cache().len().to_string(),
        ]);
        prev = snap;
        spans.exit(obs);
    }

    let verdict_rows = queries
        .iter()
        .zip(&last)
        .take(queries.len() - 2) // the two duplicates add no new row
        .map(|(q, v)| {
            vec![
                q.family.key().to_owned(),
                q.bath.key().to_owned(),
                format!("{:.2}", q.utilization),
                format!("{:016x}", q.canonical_hash()),
                format!("{:.1}", v.junction_c),
                format!("{:.3}", v.cooling_overhead),
                format!("{:.6}", v.availability_mean),
                format!("{:.2}", v.annual_energy_kwh / 1e3),
                if v.compliant { "yes" } else { "no" }.to_owned(),
            ]
        })
        .collect();

    vec![
        Table::new(
            format!(
                "E18 — design-query verdicts, family × utilization grid \
                 (seed {SEED}, {TRIALS} MC trials, {HORIZON:.0} y horizon)",
                HORIZON = crate::HORIZON_YEARS
            ),
            &[
                "family",
                "bath",
                "util",
                "query hash",
                "junction [°C]",
                "overhead",
                "avail (mean)",
                "annual [MWh]",
                "compliant",
            ],
            verdict_rows,
        ),
        Table::new(
            format!("E18 — query-cache behaviour, {ROUNDS}× same batch, capacity {CAPACITY}"),
            &[
                "round",
                "requests",
                "hits",
                "misses",
                "coalesced",
                "evictions",
                "resident",
            ],
            round_rows,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcs_obs::Registry;

    /// The pinned cache schedule: 14 requests × 3 rounds against an
    /// 8-slot FIFO cache partition into exactly these counters. This is
    /// the same ratio the E18 profile golden freezes in CI.
    #[test]
    fn cache_schedule_is_pinned() {
        let obs = Registry::new();
        let _tables = run(Sinks::counters(&obs));
        let snap = obs.snapshot();
        assert_eq!(snap.counter("query.requests"), 42);
        assert_eq!(snap.counter("query.cache.hits"), 18);
        assert_eq!(snap.counter("query.cache.misses"), 20);
        assert_eq!(snap.counter("query.batch.coalesced"), 4);
        assert_eq!(snap.counter("query.cache.evictions"), 12);
        // The work mirrors carry the same values into the profile.
        assert_eq!(snap.counter("profile.query.cache.hits"), 18);
        assert_eq!(snap.counter("profile.query.cache.misses"), 20);
    }

    #[test]
    fn batch_has_exactly_two_duplicates() {
        let queries = batch();
        assert_eq!(queries.len(), 14);
        let mut hashes: Vec<u64> = queries.iter().map(DesignQuery::canonical_hash).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 12);
    }
}
