//! **E17** — fault drills: the robustness matrix.
//!
//! Every drill scripts one fault class from the cooling plant's failure
//! taxonomy (plus a fault-free control row and a sensor-fault storm) and
//! runs it against both designs — SKAT and SKAT+ — under the hardened,
//! sensor-fault-tolerant supervisor. The reported figures are the ones a
//! plant operator cares about: how fast the first alarm fired, when (if
//! ever) the emergency stop tripped, how hot the silicon truly got, and
//! whether the hardware reliability ceiling was ever violated.
//!
//! The whole matrix is deterministic: every (design × drill) cell draws
//! its sensor noise from its own jumped RNG stream, the cells are
//! independent work items, and the table is bit-identical at every
//! `RCS_THREADS` setting.

use rcs_cooling::faults::{FaultKind, FaultTimeline, SensorChannel, SensorFault};
use rcs_numeric::rng::Rng;
use rcs_obs::Sinks;
use rcs_units::Seconds;

use super::Table;
use crate::{DrillOutcome, FaultDrill};

/// Drill duration.
pub(crate) const DURATION_MIN: f64 = 20.0;

/// RNG seed (fixed: the experiment is reproducible).
pub const SEED: u64 = 20180402;

/// The scripted fault timelines, shared by both designs.
#[must_use]
pub fn drill_scripts() -> Vec<(&'static str, FaultTimeline)> {
    let m = Seconds::minutes;
    vec![
        ("nominal", FaultTimeline::new()),
        (
            "pump seizure (all pumps)",
            FaultTimeline::new()
                .with_event(m(2.0), FaultKind::PumpSeizure { pump: 0 })
                .with_event(m(2.0), FaultKind::PumpSeizure { pump: 1 }),
        ),
        (
            "pump seizure (pump 0 only)",
            FaultTimeline::new().with_event(m(2.0), FaultKind::PumpSeizure { pump: 0 }),
        ),
        (
            "impeller wear",
            FaultTimeline::new().with_event(
                Seconds::new(0.0),
                FaultKind::ImpellerWear {
                    head_decay_per_hour: 2.0,
                },
            ),
        ),
        (
            "exchanger fouling",
            FaultTimeline::new().with_event(
                Seconds::new(0.0),
                FaultKind::ExchangerFouling {
                    rate_k_per_w_per_hour: 0.01,
                },
            ),
        ),
        (
            "chiller setpoint drift",
            FaultTimeline::new().with_event(
                m(1.0),
                FaultKind::ChillerSetpointDrift {
                    rate_k_per_hour: 45.0,
                },
            ),
        ),
        (
            "chiller capacity loss",
            FaultTimeline::new().with_event(
                m(2.0),
                FaultKind::ChillerCapacityLoss {
                    capacity_factor: 0.03,
                },
            ),
        ),
        (
            "coolant leak",
            FaultTimeline::new().with_event(
                m(1.0),
                FaultKind::CoolantLeak {
                    level_per_hour: 1.2,
                },
            ),
        ),
        (
            "valve stuck partial",
            FaultTimeline::new().with_event(m(2.0), FaultKind::ValveStuckPartial { opening: 0.15 }),
        ),
        (
            "sensor storm (healthy plant)",
            FaultTimeline::new()
                .with_event(
                    m(3.0),
                    FaultKind::SensorFault {
                        channel: SensorChannel::AgentTemperature,
                        fault: SensorFault::StuckAt(45.0),
                    },
                )
                .with_event(
                    m(4.0),
                    FaultKind::SensorFault {
                        channel: SensorChannel::ComponentTemperature(1),
                        fault: SensorFault::Drift { rate_per_s: 0.2 },
                    },
                )
                .with_event(
                    m(5.0),
                    FaultKind::SensorFault {
                        channel: SensorChannel::CoolantFlow,
                        fault: SensorFault::Dropout,
                    },
                ),
        ),
    ]
}

/// The (design × drill) cells in fixed matrix order: all SKAT drills,
/// then all SKAT+ drills.
#[must_use]
fn cells() -> Vec<FaultDrill> {
    let duration = Seconds::minutes(DURATION_MIN);
    let mut drills = Vec::new();
    for (name, timeline) in drill_scripts() {
        drills.push(FaultDrill::skat(name, timeline, duration));
    }
    for (name, timeline) in drill_scripts() {
        drills.push(FaultDrill::skat_plus(name, timeline, duration));
    }
    drills
}

/// Runs the full matrix with the ambient `RCS_THREADS` worker count.
#[must_use]
pub(crate) fn rows(sinks: Sinks<'_>) -> Vec<DrillOutcome> {
    rows_with_threads(rcs_parallel::thread_count(), sinks)
}

/// `rows` with an explicit worker count. Each cell owns a jumped RNG
/// stream, so the outcome vector is bit-identical at every count — and
/// so is the telemetry: every matrix cell runs on a per-cell shard of
/// `sinks` inside a `<design>/<drill>` span, records its `drill.*` /
/// `immersion.*` / `hydraulics.*` counters and its drill trajectory
/// (`drill.t_chip`, `drill.t_bath`, `drill.flow_lpm`,
/// `drill.utilization`, `drill.alarms`, `drill.action`, merged under a
/// `<design>/<drill>/` trace prefix), and the shards merge in matrix
/// order.
///
/// # Panics
///
/// Panics if a drill cell panics — drills are deterministic physics,
/// never expected to unwind.
#[must_use]
pub fn rows_with_threads(threads: usize, sinks: Sinks<'_>) -> Vec<DrillOutcome> {
    let drills = cells();
    let labels: Vec<String> = drills
        .iter()
        .map(|d| format!("{}/{}", d.module.name(), d.name))
        .collect();
    let streams = Rng::seed_from_u64(SEED).split_streams(drills.len());
    let work: Vec<(FaultDrill, Rng)> = drills.into_iter().zip(streams).collect();
    rcs_parallel::par_map_isolated(
        work,
        threads,
        sinks,
        |i| labels[i].clone(),
        // drills cost alike: keep first-in-first-out dispatch
        |_| 0,
        |_, (drill, mut rng), shard| drill.run(&mut rng, shard),
    )
    .into_iter()
    .enumerate()
    .map(|(i, cell)| match cell {
        Ok(outcome) => outcome,
        Err(panic) => panic!("drill cell {} panicked: {panic}", labels[i]),
    })
    .collect()
}

fn fmt_time(t: Option<Seconds>) -> String {
    t.map_or_else(|| "—".to_owned(), |s| format!("{:.0} s", s.seconds()))
}

/// Renders the experiment table (telemetry as for `rows`).
#[must_use]
pub fn run(sinks: Sinks<'_>) -> Vec<Table> {
    render(&rows(sinks))
}

fn render(data: &[DrillOutcome]) -> Vec<Table> {
    let table = Table::new(
        format!(
            "E17 — fault drills, {DURATION_MIN:.0} min horizon, hardened supervisor (seed {SEED})"
        ),
        &[
            "design",
            "drill",
            "first alarm",
            "shutdown",
            "peak Tj [°C]",
            "limit violations",
            "min util",
            "failed channels",
        ],
        data.iter()
            .map(|r| {
                vec![
                    r.design.clone(),
                    r.name.clone(),
                    fmt_time(r.time_to_alarm),
                    fmt_time(r.time_to_shutdown),
                    format!("{:.1}", r.peak_junction.degrees()),
                    format!("{}", r.violation_steps),
                    format!("{:.2}", r.min_utilization),
                    {
                        let failed = r.channel_health.failed_channels();
                        if failed.is_empty() {
                            "none".to_owned()
                        } else {
                            failed.join(", ")
                        }
                    },
                ]
            })
            .collect(),
    );
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcs_obs::Registry;

    #[test]
    fn matrix_covers_both_designs_and_every_script() {
        let data = rows_with_threads(1, Sinks::disabled());
        let scripts = drill_scripts().len();
        assert_eq!(data.len(), 2 * scripts);
        assert!(data.iter().take(scripts).all(|r| r.design == "SKAT"));
        assert!(data.iter().skip(scripts).all(|r| r.design == "SKAT+"));
    }

    #[test]
    fn no_physical_drill_returns_a_solver_error() {
        for outcome in rows_with_threads(1, Sinks::disabled()) {
            assert!(
                outcome.solver_failure.is_none(),
                "{} / {}: {:?}",
                outcome.design,
                outcome.name,
                outcome.solver_failure
            );
        }
    }

    #[test]
    fn supervised_drills_never_violate_the_hardware_limit() {
        for outcome in rows_with_threads(1, Sinks::disabled()) {
            assert_eq!(
                outcome.violation_steps, 0,
                "{} / {}: {:?}",
                outcome.design, outcome.name, outcome
            );
        }
    }

    #[test]
    fn nominal_and_sensor_storm_rows_stay_silent() {
        for outcome in rows_with_threads(1, Sinks::disabled()) {
            if outcome.name == "nominal" || outcome.name.starts_with("sensor storm") {
                assert!(
                    outcome.time_to_alarm.is_none(),
                    "{} / {}: {:?}",
                    outcome.design,
                    outcome.name,
                    outcome
                );
                assert!(!outcome.shut_down);
            }
        }
    }

    #[test]
    fn a_drifting_chiller_is_throttled_through_not_shut_down() {
        // On both designs the supervisor answers a failing chiller by
        // shedding load, never trips the module, and keeps the junction
        // under the hardware limit.
        let mut drifts = 0;
        for (drill, outcome) in cells().iter().zip(rows_with_threads(1, Sinks::disabled())) {
            if drill.name != "chiller setpoint drift" {
                continue;
            }
            drifts += 1;
            assert!(outcome.time_to_alarm.is_some(), "{outcome:?}");
            assert!(outcome.min_utilization < 0.90, "{outcome:?}");
            assert!(!outcome.shut_down, "{outcome:?}");
            assert_eq!(outcome.time_to_shutdown, None, "{outcome:?}");
            assert_eq!(outcome.violation_steps, 0, "{outcome:?}");
            assert!(
                outcome.peak_junction < drill.control.component_limit,
                "{outcome:?}"
            );
        }
        assert_eq!(drifts, 2, "one drift row per design");
    }

    #[test]
    fn observed_matrix_matches_plain_and_counts_every_cell() {
        let obs = Registry::new();
        let observed = rows_with_threads(1, Sinks::counters(&obs));
        assert_eq!(observed, rows_with_threads(1, Sinks::disabled()));
        let snap = obs.snapshot();
        let cells = 2 * drill_scripts().len() as u64;
        assert_eq!(snap.counter("drill.runs"), cells);
        assert_eq!(snap.counter("parallel.tasks"), cells);
        // the supervised matrix never lets the plant over the ceiling
        assert_eq!(snap.counter("drill.violation_steps"), 0);
        assert_eq!(snap.counter("drill.solver_failures"), 0);
        // the sensor-storm rows exercise the plausibility filters
        assert!(snap.counter("drill.plausibility.rejections") > 0);
    }

    #[test]
    fn matrix_is_identical_at_every_thread_count() {
        let serial = rows_with_threads(1, Sinks::disabled());
        for threads in [2, 4, 7] {
            assert_eq!(
                serial,
                rows_with_threads(threads, Sinks::disabled()),
                "threads = {threads}"
            );
        }
    }
}
