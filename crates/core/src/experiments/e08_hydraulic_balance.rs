//! **E8 / F5** — hydraulic self-balancing of the rack manifold (§4,
//! Fig. 5).
//!
//! Paper: arranging the circulation loops so that "the closed trajectory
//! of the heat-transfer agent flow is similar for all loops" (reverse
//! return) balances the flows with no balancing-valve subsystem, and "if
//! a circulation loop in any computational module fails, then the
//! heat-transfer agent flow is evenly changed in the rest of modules."

use rcs_fluids::Coolant;
use rcs_hydraulics::{balance, layout, SolveOptions};
use rcs_obs::Sinks;
use rcs_units::Celsius;

use super::Table;

/// Number of circulation loops in Fig. 5.
pub(crate) const LOOPS: usize = 6;

/// Per-layout flow distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutRow {
    /// Layout label.
    pub layout: String,
    /// Per-loop flows, L/min, in rack order.
    pub flows_lpm: Vec<f64>,
    /// Max/min spread.
    pub spread: f64,
    /// Coefficient of variation.
    pub cv: f64,
}

fn water() -> rcs_fluids::FluidState {
    Coolant::water().state(Celsius::new(20.0))
}

fn measure(plan: &layout::ManifoldPlan, label: &str, sinks: Sinks<'_>) -> LayoutRow {
    let mut ctx = plan.network.solver_context();
    let sol = plan
        .network
        .solve_with_ladder(&water(), &SolveOptions::ladder(), &mut ctx, sinks)
        .expect("manifold converges");
    let flows = plan.loop_flows(&sol);
    LayoutRow {
        layout: label.to_owned(),
        flows_lpm: flows.iter().map(|q| q.as_liters_per_minute()).collect(),
        spread: balance::spread(&flows).expect("manifold has loops"),
        cv: balance::coefficient_of_variation(&flows).expect("manifold has loops"),
    }
}

/// Computes the three layout rows: direct return, direct return with
/// auto-trimmed balancing valves, and reverse return. The three
/// measurement solves record `hydraulics.ladder.*` telemetry into
/// `sinks` (the auto-trim iteration is deliberately unobserved — its
/// solve count is an implementation detail of the valve-trimming
/// search, not of the reported layouts).
#[must_use]
pub fn rows(sinks: Sinks<'_>) -> Vec<LayoutRow> {
    let direct = layout::rack_manifold(LOOPS, layout::ReturnStyle::Direct);
    let reverse = layout::rack_manifold(LOOPS, layout::ReturnStyle::Reverse);
    let params = layout::ManifoldParams {
        balancing_valves: true,
        ..layout::ManifoldParams::default()
    };
    let mut trimmed = layout::rack_manifold_with(LOOPS, layout::ReturnStyle::Direct, &params);
    balance::auto_trim(&mut trimmed, &water(), 1.02, 60).expect("trim converges");

    vec![
        measure(&direct, "direct return (no valves)", sinks),
        measure(&trimmed, "direct return + trimmed balancing valves", sinks),
        measure(&reverse, "reverse return (Fig. 5, no valves)", sinks),
    ]
}

/// The failure-injection series: per-loop flows of the reverse-return
/// layout before and after loop `failed` closes, both solves recorded
/// into `sinks`.
#[must_use]
pub fn failure_series(failed: usize, sinks: Sinks<'_>) -> (Vec<f64>, Vec<f64>) {
    let mut plan = layout::rack_manifold(LOOPS, layout::ReturnStyle::Reverse);
    // One context across both solves: the loop failure flips branch
    // openness, which rebuilds the sparse schedule but keeps the healthy
    // flows as the warm seed for the degraded re-solve.
    let mut ctx = plan.network.solver_context();
    let before = plan
        .loop_flows(
            &plan
                .network
                .solve_with_ladder(&water(), &SolveOptions::ladder(), &mut ctx, sinks)
                .expect("converges"),
        )
        .iter()
        .map(|q| q.as_liters_per_minute())
        .collect();
    plan.fail_loop(failed).expect("valid loop");
    let after = plan
        .loop_flows(
            &plan
                .network
                .solve_with_ladder(&water(), &SolveOptions::ladder(), &mut ctx, sinks)
                .expect("converges"),
        )
        .iter()
        .map(|q| q.as_liters_per_minute())
        .collect();
    (before, after)
}

/// Renders the experiment tables. Every measurement solve records into
/// `sinks.obs`; each layout's per-loop flow distribution lands in an
/// `e08.flow/<layout>` trace channel (loop index as the time axis), the
/// failure injection records its before/after series in
/// `e08.failure.before` / `e08.failure.after`, and the whole
/// measurement pass runs inside a single `hydraulics.balance` span with
/// one `hydraulics.ladder` child per measurement solve.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn run(sinks: Sinks<'_>) -> Vec<Table> {
    let Sinks { obs, trace, spans } = sinks;
    spans.enter("hydraulics.balance", obs);
    use rcs_obs::trace::ChannelKind;
    let data = rows(sinks);
    if trace.is_enabled() {
        for row in &data {
            let ch = trace.channel(&format!("e08.flow/{}", row.layout), ChannelKind::Flow);
            for (i, q) in row.flows_lpm.iter().enumerate() {
                trace.record(ch, i as f64, *q);
            }
        }
    }
    let mut headers: Vec<String> = vec!["layout".into()];
    headers.extend((0..LOOPS).map(|i| format!("loop {i} [L/min]")));
    headers.push("spread".into());
    headers.push("CV".into());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();

    let distribution = Table::new(
        "E8/F5 — per-loop flow by manifold layout (6 loops, water at 20 °C)",
        &header_refs,
        data.iter()
            .map(|r| {
                let mut row = vec![r.layout.clone()];
                row.extend(r.flows_lpm.iter().map(|q| format!("{q:.1}")));
                row.push(format!("{:.3}", r.spread));
                row.push(format!("{:.4}", r.cv));
                row
            })
            .collect(),
    );

    let (before, after) = failure_series(2, sinks);
    if trace.is_enabled() {
        let ch_before = trace.channel("e08.failure.before", ChannelKind::Flow);
        let ch_after = trace.channel("e08.failure.after", ChannelKind::Flow);
        for (i, q) in before.iter().enumerate() {
            trace.record(ch_before, i as f64, *q);
        }
        for (i, q) in after.iter().enumerate() {
            trace.record(ch_after, i as f64, *q);
        }
    }
    let mut rows_fail = vec![
        {
            let mut r = vec!["all loops running".to_owned()];
            r.extend(before.iter().map(|q| format!("{q:.1}")));
            r
        },
        {
            let mut r = vec!["loop 2 failed".to_owned()];
            r.extend(after.iter().map(|q| format!("{q:.1}")));
            r
        },
    ];
    let gains: Vec<String> = before
        .iter()
        .zip(&after)
        .enumerate()
        .map(|(i, (b, a))| {
            if i == 2 {
                "—".to_owned()
            } else {
                format!("{:+.1}%", (a / b - 1.0) * 100.0)
            }
        })
        .collect();
    rows_fail.push({
        let mut r = vec!["survivor gain".to_owned()];
        r.extend(gains);
        r
    });
    let mut fail_headers: Vec<String> = vec!["state".into()];
    fail_headers.extend((0..LOOPS).map(|i| format!("loop {i}")));
    let fail_refs: Vec<&str> = fail_headers.iter().map(String::as_str).collect();
    let failure = Table::new(
        "E8 — reverse-return failure injection (paper: flow 'evenly changed' in the rest)",
        &fail_refs,
        rows_fail,
    );

    spans.exit(obs);
    vec![distribution, failure]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcs_obs::Registry;

    #[test]
    fn reverse_return_beats_untrimmed_direct() {
        let data = rows(Sinks::disabled());
        let direct = &data[0];
        let reverse = &data[2];
        assert!(reverse.spread < direct.spread);
        assert!(reverse.spread < 1.10, "spread = {}", reverse.spread);
        assert!(direct.spread > 1.15, "spread = {}", direct.spread);
    }

    #[test]
    fn trimming_matches_reverse_but_needs_valves() {
        let data = rows(Sinks::disabled());
        let trimmed = &data[1];
        assert!(trimmed.spread < 1.05, "spread = {}", trimmed.spread);
    }

    #[test]
    fn e8_measurement_solves_all_converge_first_try() {
        let obs = Registry::new();
        let tables = run(Sinks::counters(&obs));
        assert_eq!(tables.len(), 2);
        let snap = obs.snapshot();
        // three layout measurements + the before/after failure solves,
        // every one converged on the ladder's first rung
        assert_eq!(snap.counter("hydraulics.ladder.calls"), 5);
        assert_eq!(snap.counter("hydraulics.ladder.converged"), 5);
        assert_eq!(snap.counter("hydraulics.ladder.escalations"), 0);
        let rung = snap
            .histogram("hydraulics.ladder.rung")
            .expect("rung histogram recorded");
        assert_eq!(rung.counts, vec![5, 0, 0, 0]);
        let iters = snap
            .histogram("hydraulics.ladder.iterations")
            .expect("iteration histogram recorded");
        assert_eq!(iters.total(), 5);
    }

    #[test]
    fn failure_gains_are_even() {
        let (_, after) = failure_series(2, Sinks::disabled());
        let survivors: Vec<f64> = after
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != 2)
            .map(|(_, &q)| q)
            .collect();
        let max = survivors.iter().cloned().fold(f64::MIN, f64::max);
        let min = survivors.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min < 1.12, "survivor spread {}", max / min);
        assert_eq!(after[2], 0.0);
    }
}
