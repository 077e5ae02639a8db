//! The experiment harness: one module per table/figure of the paper.
//!
//! Every experiment returns [`Table`]s whose rows put the paper's reported
//! value next to the model's measured value, so `EXPERIMENTS.md` can be
//! regenerated by running the `exp_*` binaries (or everything at once via
//! `exp_all`). The mapping from experiment id to paper claim lives in
//! `DESIGN.md`.

pub mod e01_air_anchors;
pub mod e03_family_scaling;
pub mod e04_liquid_vs_air;
pub mod e05_skat_thermal;
pub mod e06_generation_gains;
pub mod e07_rack_pflops;
pub mod e08_hydraulic_balance;
pub mod e09_skat_plus;
pub mod e10_tim_washout;
pub mod e11_heatsink_design;
pub mod e12_reliability_mc;
pub mod e13_ablations;
pub mod e14_energy;
pub mod e15_maintenance;
pub mod e16_fleet;
pub mod e17_fault_drills;
pub mod f01_design_figures;

use rcs_obs::Sinks;

/// A printable experiment result table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table caption (includes the experiment id).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows; each must have `headers.len()` cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Builds a table, validating row widths.
    ///
    /// # Panics
    ///
    /// Panics if any row's width differs from the header count.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str], rows: Vec<Vec<String>>) -> Self {
        let headers: Vec<String> = headers.iter().map(|h| (*h).to_owned()).collect();
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                row.len(),
                headers.len(),
                "row {i} has {} cells, expected {}",
                row.len(),
                headers.len()
            );
        }
        Self {
            title: title.into(),
            headers,
            rows,
        }
    }
}

impl core::fmt::Display for Table {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        writeln!(f, "\n== {} ==", self.title)?;
        let print_row = |f: &mut core::fmt::Formatter<'_>, cells: &[String]| {
            let mut line = String::new();
            for (w, cell) in widths.iter().zip(cells) {
                line.push_str("| ");
                line.push_str(cell);
                line.push_str(&" ".repeat(w.saturating_sub(cell.chars().count()) + 1));
            }
            line.push('|');
            writeln!(f, "{line}")
        };
        print_row(f, &self.headers)?;
        let total: usize = widths.iter().map(|w| w + 3).sum::<usize>() + 1;
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            print_row(f, row)?;
        }
        Ok(())
    }
}

/// Runs every experiment and returns all tables in order. The
/// instrumented experiments (E5, E8, E12, E17) record their solver,
/// Monte-Carlo and drill telemetry into `sinks`, each inside an
/// `exp.<id>` root span whose children break the run down (solver
/// ladders, drill cells, warm-up sessions); the rest run exactly as
/// before. The merged counters are the `exp_all` manifest body.
#[must_use]
pub fn run_all(sinks: Sinks<'_>) -> Vec<Table> {
    let Sinks { obs, spans, .. } = sinks;
    let mut tables = Vec::new();
    tables.extend(e01_air_anchors::run());
    tables.extend(e03_family_scaling::run());
    tables.extend(e04_liquid_vs_air::run());
    spans.enter("exp.e05_skat_thermal", obs);
    tables.extend(e05_skat_thermal::run(sinks));
    spans.exit(obs);
    tables.extend(e06_generation_gains::run());
    tables.extend(e07_rack_pflops::run());
    spans.enter("exp.e08_hydraulic_balance", obs);
    tables.extend(e08_hydraulic_balance::run(sinks));
    spans.exit(obs);
    tables.extend(e09_skat_plus::run());
    tables.extend(e10_tim_washout::run());
    tables.extend(e11_heatsink_design::run());
    spans.enter("exp.e12_reliability_mc", obs);
    tables.extend(e12_reliability_mc::run(sinks));
    spans.exit(obs);
    tables.extend(e13_ablations::run());
    tables.extend(e14_energy::run());
    tables.extend(e15_maintenance::run());
    tables.extend(e16_fleet::run());
    spans.enter("exp.e17_fault_drills", obs);
    tables.extend(e17_fault_drills::run(sinks));
    spans.exit(obs);
    tables.extend(f01_design_figures::run());
    tables
}

/// The shared tail of every `exp_*` binary: prints `tables` to stdout
/// (byte-identical to the historical format — the determinism CI jobs
/// diff it), counts them into `experiments.tables`, then emits the
/// NDJSON run manifest via [`rcs_obs::manifest::emit`] (to the file
/// named by `RCS_OBS_MANIFEST`, else stderr — never stdout). An enabled
/// trace recorder is appended to the file named by `RCS_OBS_TRACE`
/// ([`rcs_obs::trace::emit`]) and an enabled span sink to the file
/// named by `RCS_OBS_SPANS` ([`rcs_obs::span::emit`]). Pointing
/// `RCS_OBS_MANIFEST` and `RCS_OBS_TRACE` at the same file yields one
/// NDJSON stream carrying the counters and the traces of the run, which
/// is exactly what `obs_report` ingests.
pub fn finish_run(experiment: &str, seed: Option<u64>, tables: &[Table], sinks: Sinks<'_>) {
    for table in tables {
        print!("{table}");
    }
    sinks.obs.add("experiments.tables", tables.len() as u64);
    let meta = rcs_obs::manifest::RunMeta::new(experiment, seed, rcs_parallel::thread_count());
    rcs_obs::manifest::emit(&meta, sinks.obs);
    if sinks.trace.is_enabled() {
        rcs_obs::trace::emit(&sinks.trace.snapshot());
    }
    if sinks.spans.is_enabled() {
        rcs_obs::span::emit(&sinks.spans.snapshot());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_validates_row_width() {
        let t = Table::new("t", &["a", "b"], vec![vec!["1".into(), "2".into()]]);
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row 0 has 1 cells")]
    fn ragged_rows_panic() {
        let _ = Table::new("t", &["a", "b"], vec![vec!["1".into()]]);
    }

    #[test]
    fn display_aligns_columns() {
        let t = Table::new(
            "demo",
            &["name", "value"],
            vec![
                vec!["short".into(), "1".into()],
                vec!["a longer name".into(), "2".into()],
            ],
        );
        let s = t.to_string();
        assert!(s.contains("== demo =="));
        assert!(s.lines().count() >= 5);
    }
}
