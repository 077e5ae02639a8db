//! **E12** — operational reliability of the three architectures (§2).
//!
//! Paper (qualitative): closed loops suffer conductive leaks, dew-point
//! condensation and "a large number of pressure-tight connections";
//! immersion offers "high reliability and low cost." The Monte-Carlo
//! availability study quantifies this over a five-year service horizon.

use rcs_cooling::{
    availability, risk, AirCooling, ColdPlateLoop, CoolingArchitecture, ImmersionBath,
};
use rcs_obs::span::SpanSink;
use rcs_obs::Sinks;

use super::Table;

/// Service horizon, years.
pub(crate) const HORIZON_YEARS: f64 = 5.0;
/// Monte-Carlo trials.
pub(crate) const TRIALS: usize = 4000;
/// RNG seed (fixed: the experiment is reproducible).
pub const SEED: u64 = 20180401;

/// One architecture's reliability outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityRow {
    /// Architecture label.
    pub architecture: String,
    /// Pressure-tight connection count.
    pub connections: usize,
    /// Expected failure events per module-year (analytic).
    pub events_per_year: f64,
    /// Expected downtime hours per module-year (analytic).
    pub downtime_hours_per_year: f64,
    /// Monte-Carlo mean availability.
    pub availability: f64,
    /// Monte-Carlo 5th-percentile availability.
    pub p05_availability: f64,
    /// Expected hardware-loss events over the horizon.
    pub hardware_losses: f64,
}

fn architectures() -> Vec<CoolingArchitecture> {
    vec![
        CoolingArchitecture::Air(AirCooling::machine_room_default()),
        CoolingArchitecture::ColdPlate(ColdPlateLoop::per_chip_plates(96)),
        CoolingArchitecture::Immersion(ImmersionBath::skat_default()),
        CoolingArchitecture::Immersion(ImmersionBath::skat_plus_default()),
    ]
}

fn label(arch: &CoolingArchitecture) -> String {
    match arch {
        CoolingArchitecture::Immersion(b) if b.immersed_pumps => {
            "open-loop immersion (SKAT+, immersed pumps)".to_owned()
        }
        CoolingArchitecture::Immersion(_) => "open-loop immersion (SKAT)".to_owned(),
        other => other.name().to_owned(),
    }
}

/// Computes the per-architecture rows.
///
/// The four architectures are independent seeded studies, so they run as
/// parallel work items (each of which chunks its own trials in turn);
/// row order and every value are identical to the serial sweep. Every
/// study records its `mc.*` counters — runs, trials, chunks, failure
/// events, hardware losses — and its per-trial availability series (a
/// `<architecture>/mc.availability` trace channel) into a per-item
/// shard of `sinks`, merged in architecture order, so the telemetry is
/// bit-identical at any `RCS_THREADS`. The studies record no spans.
#[must_use]
pub fn rows(sinks: Sinks<'_>) -> Vec<ReliabilityRow> {
    let threads = rcs_parallel::thread_count();
    let archs = architectures();
    let labels: Vec<String> = archs.iter().map(label).collect();
    rcs_parallel::par_map(
        archs,
        threads,
        Sinks {
            spans: SpanSink::disabled(),
            ..sinks
        },
        |i| labels[i].clone(),
        |_, arch, shard| {
            let classes = risk::failure_classes(&arch);
            let mc = availability::monte_carlo_with_threads(
                &classes,
                HORIZON_YEARS,
                TRIALS,
                SEED,
                threads,
                shard,
            );
            ReliabilityRow {
                architecture: label(&arch),
                connections: arch.pressure_tight_connections(),
                events_per_year: classes.iter().map(|c| c.rate_per_year).sum(),
                downtime_hours_per_year: risk::expected_annual_downtime_hours(&classes),
                availability: mc.mean_availability,
                p05_availability: mc.p05_availability,
                hardware_losses: mc.mean_hardware_losses,
            }
        },
    )
}

/// Renders the experiment table; the architecture sweep records into
/// `sinks` (see [`rows`]) inside a single `reliability.sweep` span.
#[must_use]
pub fn run(sinks: Sinks<'_>) -> Vec<Table> {
    sinks.spans.enter("reliability.sweep", sinks.obs);
    let data = rows(sinks);
    let table = Table::new(
        format!(
            "E12 — {HORIZON_YEARS:.0}-year Monte-Carlo availability ({TRIALS} trials, seed {SEED})"
        ),
        &[
            "architecture",
            "liquid connections",
            "events/yr",
            "downtime [h/yr]",
            "availability",
            "p05 availability",
            "hardware losses (5 yr)",
        ],
        data.iter()
            .map(|r| {
                vec![
                    r.architecture.clone(),
                    r.connections.to_string(),
                    format!("{:.2}", r.events_per_year),
                    format!("{:.1}", r.downtime_hours_per_year),
                    format!("{:.5}", r.availability),
                    format!("{:.5}", r.p05_availability),
                    format!("{:.2}", r.hardware_losses),
                ]
            })
            .collect(),
    );
    sinks.spans.exit(sinks.obs);
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcs_obs::Registry;

    #[test]
    fn immersion_beats_cold_plates_on_every_axis() {
        let data = rows(Sinks::disabled());
        let plates = &data[1];
        let immersion = &data[2];
        assert!(immersion.connections < plates.connections / 10);
        assert!(immersion.downtime_hours_per_year < plates.downtime_hours_per_year);
        assert!(immersion.availability > plates.availability);
        assert!(immersion.hardware_losses < 1e-9);
        assert!(plates.hardware_losses > 0.5);
    }

    #[test]
    fn skat_plus_improves_on_skat() {
        let data = rows(Sinks::disabled());
        assert!(data[3].downtime_hours_per_year <= data[2].downtime_hours_per_year);
        assert!(data[3].connections < data[2].connections);
    }

    #[test]
    fn experiment_is_deterministic() {
        assert_eq!(rows(Sinks::disabled()), rows(Sinks::disabled()));
    }

    #[test]
    fn observed_rows_match_plain_and_count_every_trial() {
        let obs = Registry::new();
        let observed = rows(Sinks::counters(&obs));
        assert_eq!(observed, rows(Sinks::disabled()));
        let snap = obs.snapshot();
        let n = architectures().len() as u64;
        assert_eq!(snap.counter("mc.runs"), n);
        assert_eq!(snap.counter("mc.trials"), n * TRIALS as u64);
        // 4000 trials in 64-trial chunks = 63 chunks per architecture
        assert_eq!(snap.counter("mc.chunks"), n * 63);
        assert!(snap.counter("mc.events") > 0);
    }
}
