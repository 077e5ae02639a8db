//! Physics oracle for the coupled immersion solve.
//!
//! The results of this simulator are checked at two levels:
//!
//! - **Physics, within a tolerance.** `goldens/physics_immersion.ndjson`
//!   holds one line per configuration with the physical outputs of the
//!   coupled SKAT / SKAT+ fixed point (junction, oil hot/cold, flow,
//!   heat, pump and chiller power) and of the shared-chiller rack solve.
//!   A solver may change how it reaches a fixed point, never where it
//!   lands: temperatures must agree within [`TEMP_TOL_K`], everything
//!   else within the relative [`REL_TOL`]. Both bounds sit well above
//!   the fixed point's own 1e-7 K stopping error, and far below any
//!   figure the experiments print.
//! - **Work, exactly.** Iteration counts, rungs and every other work
//!   counter are not in this file; they are pinned bitwise by the
//!   `goldens/exp_*_{profile,spans}.ndjson` files, which may be re-pinned
//!   only with a written reason.
//!
//! The configurations cover both presets over the utilization range,
//! throttled circulation valves, worn and seized pumps, aged interface
//! material, the degraded plant state of every E17 fault script, and
//! racks of 1–32 modules, including racks that overload the facility
//! chiller.
//!
//! The golden is regenerated only for a deliberate change of the
//! physics, with the reason recorded in the changelog:
//!
//! ```text
//! cargo test --release --test physics_oracle -- --ignored regenerate
//! ```

use std::fmt::Write as _;

use rcs_sim::cooling::faults::DegradedState;
use rcs_sim::cooling::ImmersionBath;
use rcs_sim::core::experiments::e17_fault_drills::drill_scripts;
use rcs_sim::core::{CoreError, ImmersionModel, RackImmersionModel, SteadyReport, SteadySeed};
use rcs_sim::devices::OperatingPoint;
use rcs_sim::obs::report::{parse_json, Json};
use rcs_sim::platform::{presets, ComputeModule};
use rcs_sim::thermal::{TimAging, TimMaterial};
use rcs_sim::units::{Celsius, Seconds, VolumeFlow};

/// Absolute tolerance on every temperature (fields ending in `_c`).
const TEMP_TOL_K: f64 = 1e-5;
/// Relative tolerance on every other field: heat, flow, power.
const REL_TOL: f64 = 1e-7;

const GOLDEN: &str = "goldens/physics_immersion.ndjson";

/// One configuration's physical outputs, as `(field, value)` pairs.
type Fields = Vec<(String, f64)>;

/// A configuration's outcome: its fields, or the tag of the structured
/// error it must keep returning (a plant with no steady state).
type Outcome = Result<Fields, String>;

fn steady_fields(r: &SteadyReport) -> Fields {
    [
        ("junction_c", r.junction.degrees()),
        ("coolant_hot_c", r.coolant_hot.degrees()),
        ("coolant_cold_c", r.coolant_cold.degrees()),
        ("flow_m3s", r.coolant_flow.cubic_meters_per_second()),
        ("chip_power_w", r.chip_power.watts()),
        ("total_heat_w", r.total_heat.watts()),
        ("pump_power_w", r.circulation_power.watts()),
        ("chiller_power_w", r.chiller_power.watts()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect()
}

fn presets_named() -> [(&'static str, ImmersionModel); 2] {
    [
        ("skat", ImmersionModel::skat()),
        ("skat_plus", ImmersionModel::skat_plus()),
    ]
}

/// The single-module configurations, each through the robust ladder.
fn module_cases() -> Vec<(String, ImmersionModel)> {
    let mut cases = Vec::new();
    for (design, base) in presets_named() {
        for step in 0..=10 {
            let u = f64::from(step) / 10.0;
            cases.push((
                format!("{design}/util={u:.1}"),
                base.clone()
                    .with_operating_point(OperatingPoint::at_utilization(u)),
            ));
        }
        for opening in [0.05, 0.1, 0.15, 0.3, 0.6] {
            cases.push((
                format!("{design}/valve={opening}"),
                base.clone().with_circulation_valve(opening),
            ));
        }
        let bath = base.bath().clone();
        for head in [0.8, 0.5, 0.3, 0.1] {
            let state = DegradedState {
                pump_head_factor: head,
                ..DegradedState::nominal()
            };
            cases.push((
                format!("{design}/pump_head={head}"),
                base.clone().with_pump_curves(state.pump_curves(&bath)),
            ));
        }
        // SKAT has one pump, so only SKAT+ survives a seizure with flow
        let seized = DegradedState {
            seized_pumps: vec![0],
            ..DegradedState::nominal()
        }
        .pump_curves(&bath);
        if !seized.is_empty() {
            cases.push((
                format!("{design}/pump0_seized"),
                base.clone().with_pump_curves(seized),
            ));
        }
        for (material, tag) in [
            (TimMaterial::StandardPaste, "paste"),
            (TimMaterial::SrcDesigned, "src"),
        ] {
            for months in [0.0, 6.0, 24.0] {
                cases.push((
                    format!("{design}/tim={tag}/aged_months={months}"),
                    base.clone()
                        .with_tim(material)
                        .with_aging(TimAging::immersed_months(months)),
                ));
            }
        }
    }
    cases.extend(fault_cases());
    cases
}

/// Every E17 fault script's degraded plant, built the way a drill
/// relinearizes it, at three instants of the 20-minute horizon. States
/// with no circulation left take the drill's stagnation model, not a
/// coupled solve, and are skipped.
fn fault_cases() -> Vec<(String, ImmersionModel)> {
    let mut cases = Vec::new();
    for (design, (module, bath)) in [
        ("skat", (presets::skat(), ImmersionBath::skat_default())),
        (
            "skat_plus",
            (presets::skat_plus(), ImmersionBath::skat_plus_default()),
        ),
    ] {
        for (script, timeline) in drill_scripts() {
            for minutes in [5.0, 10.0, 20.0] {
                let state = timeline.state_at(Seconds::minutes(minutes));
                if let Some(model) = degraded_model(&module, &bath, &state) {
                    cases.push((format!("{design}/e17/{script}/t={minutes}min"), model));
                }
            }
        }
    }
    cases
}

/// The coupled model a drill relinearizes for `state` at utilization
/// 0.9, or `None` when no circulation is left (the stagnation model).
fn degraded_model(
    module: &ComputeModule,
    bath: &ImmersionBath,
    state: &DegradedState,
) -> Option<ImmersionModel> {
    let curves = state.pump_curves(bath);
    if curves.is_empty() {
        return None;
    }
    let mut model = ImmersionModel::new(module.clone(), state.apply_to(bath))
        .with_operating_point(OperatingPoint::at_utilization(0.9))
        .with_pump_curves(curves);
    if state.valve_opening < 1.0 {
        model = model.with_circulation_valve(state.valve_opening);
    }
    Some(model)
}

/// Shared-chiller racks: sizes 1–32 on the 150 kW facility chiller
/// (the larger SKAT and SKAT+ racks overload it and raise the supply).
fn rack_rows() -> Vec<(String, Outcome)> {
    let mut rows = Vec::new();
    for (design, build) in [
        ("skat", RackImmersionModel::skat_rack as fn(usize) -> _),
        ("skat_plus", RackImmersionModel::skat_plus_rack),
    ] {
        for count in [1, 2, 4, 8, 12, 16, 24, 32] {
            let name = format!("{design}/rack={count}");
            let report = build(count)
                .solve()
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut fields = vec![
                ("supply_c".to_owned(), report.chiller_supply.degrees()),
                ("total_heat_w".to_owned(), report.total_heat.watts()),
                ("chiller_power_w".to_owned(), report.chiller_power.watts()),
            ];
            for (i, (m, q)) in report
                .per_module
                .iter()
                .zip(&report.water_flows)
                .enumerate()
            {
                fields.push((format!("m{i}.junction_c"), m.junction.degrees()));
                fields.push((format!("m{i}.coolant_hot_c"), m.coolant_hot.degrees()));
                fields.push((format!("m{i}.total_heat_w"), m.total_heat.watts()));
                fields.push((format!("m{i}.water_flow_m3s"), q.cubic_meters_per_second()));
            }
            rows.push((name, Ok(fields)));
        }
    }
    rows
}

fn error_tag(name: &str, e: &CoreError) -> String {
    match e {
        CoreError::NoConvergence { .. } => "no_convergence".to_owned(),
        other => panic!("{name}: substrate failure {other}"),
    }
}

/// Solves every configuration with the current code.
fn observe() -> Vec<(String, Outcome)> {
    let mut rows: Vec<(String, Outcome)> = module_cases()
        .into_iter()
        .map(|(name, model)| {
            let outcome = model
                .solve()
                .map(|report| steady_fields(&report))
                .map_err(|e| error_tag(&name, &e));
            (name, outcome)
        })
        .collect();
    rows.extend(rack_rows());
    rows
}

fn render(rows: &[(String, Outcome)]) -> String {
    let mut out = String::new();
    for (name, outcome) in rows {
        write!(out, "{{\"case\":\"{name}\"").unwrap();
        match outcome {
            Ok(fields) => {
                for (k, v) in fields {
                    assert!(v.is_finite(), "{name}.{k} is not finite: {v}");
                    write!(out, ",\"{k}\":{v:?}").unwrap();
                }
            }
            Err(tag) => write!(out, ",\"error\":\"{tag}\"").unwrap(),
        }
        out.push_str("}\n");
    }
    out
}

fn load_golden() -> Vec<(String, Outcome)> {
    let path = format!("{}/{GOLDEN}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    text.lines()
        .map(|line| {
            let Json::Obj(fields) = parse_json(line).unwrap_or_else(|e| panic!("{path}: {e}"))
            else {
                panic!("{path}: line is not an object: {line}");
            };
            let mut fields = fields.into_iter();
            let name = match fields.next() {
                Some((k, Json::Str(name))) if k == "case" => name,
                _ => panic!("{path}: line does not start with a case name: {line}"),
            };
            let fields: Vec<(String, Json)> = fields.collect();
            if let [(k, Json::Str(tag))] = fields.as_slice() {
                if k == "error" {
                    return (name, Err(tag.clone()));
                }
            }
            let values = fields
                .into_iter()
                .map(|(k, v)| {
                    let v = v
                        .as_f64()
                        .unwrap_or_else(|| panic!("{path}: {name}.{k} is not a number"));
                    (k, v)
                })
                .collect();
            (name, Ok(values))
        })
        .collect()
}

/// `None` when `fresh` is within the field's tolerance of `golden`,
/// else the size of the miss in the field's own unit (K or relative).
/// A non-finite value is always a miss.
fn miss(field: &str, golden: f64, fresh: f64) -> Option<f64> {
    let diff = (fresh - golden).abs();
    let (by, tol) = if field.ends_with("_c") || diff == 0.0 {
        (diff, TEMP_TOL_K)
    } else {
        (diff / golden.abs().max(fresh.abs()), REL_TOL)
    };
    (by.is_nan() || by > tol).then_some(by)
}

#[test]
fn physics_matches_the_golden_within_tolerance() {
    let golden = load_golden();
    let fresh = observe();
    let names =
        |rows: &[(String, Outcome)]| rows.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(
        names(&fresh),
        names(&golden),
        "the case list drifted from {GOLDEN}"
    );
    let mut misses = Vec::new();
    for ((name, want), (_, got)) in golden.iter().zip(&fresh) {
        compare(name, want, got, &mut misses);
    }
    assert!(
        misses.is_empty(),
        "{} field(s) outside tolerance:\n{}",
        misses.len(),
        misses.join("\n")
    );
}

/// Appends to `misses` every way `got` falls outside the tolerance of
/// `want`: another error tag, or a field off by more than its bound.
fn compare(name: &str, want: &Outcome, got: &Outcome, misses: &mut Vec<String>) {
    let (want, got) = match (want, got) {
        (Ok(want), Ok(got)) => (want, got),
        (want, got) => {
            let tag = |o: &Outcome| o.as_ref().err().cloned();
            if tag(want) != tag(got) {
                misses.push(format!(
                    "{name}: golden {:?}, now {:?}",
                    tag(want),
                    tag(got)
                ));
            }
            return;
        }
    };
    let keys = |f: &[(String, f64)]| f.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
    assert_eq!(keys(got), keys(want), "{name}: field list drifted");
    for ((field, g), (_, f)) in want.iter().zip(got) {
        if let Some(by) = miss(field, *g, *f) {
            misses.push(format!(
                "{name}.{field}: golden {g:?}, now {f:?} (off by {by:e})"
            ));
        }
    }
}

#[test]
fn a_solve_seeded_from_the_previous_configuration_lands_on_its_cold_solve() {
    // Neighboring cases differ by one knob (or, across groups, by the
    // whole design), so the seeds run from near misses to far ones. A
    // seed moves only where rung 0 starts, never where it lands.
    let mut seed: Option<SteadySeed> = None;
    let mut seeded_cases = 0;
    let mut misses = Vec::new();
    for (name, model) in module_cases() {
        let cold = model.solve();
        if let Some(seed) = seed {
            let seeded = model.with_seed(seed).solve();
            let outcome = |r: &Result<SteadyReport, CoreError>| -> Outcome {
                r.as_ref()
                    .map(steady_fields)
                    .map_err(|e| error_tag(&name, e))
            };
            compare(&name, &outcome(&cold), &outcome(&seeded), &mut misses);
            seeded_cases += 1;
        }
        if let Ok(report) = &cold {
            seed = Some(SteadySeed::from(report));
        }
    }
    assert_eq!(seeded_cases, module_cases().len() - 1);
    assert!(
        misses.is_empty(),
        "{} seeded field(s) outside tolerance:\n{}",
        misses.len(),
        misses.join("\n")
    );
}

/// Extrapolates the equally spaced `history` (oldest first) one step on,
/// as a drill seeds its next relinearization: quadratic through three
/// states, linear through two, the last state alone. A prediction that
/// is non-finite or has no forward flow drops the oldest state.
fn extrapolated_seed(history: &[SteadyReport]) -> SteadySeed {
    for used in (2..=history.len()).rev() {
        let points = &history[history.len() - used..];
        let weights: &[f64] = if used == 3 {
            &[1.0, -3.0, 3.0]
        } else {
            &[-1.0, 2.0]
        };
        let sum = |f: fn(&SteadyReport) -> f64| -> f64 {
            weights.iter().zip(points).map(|(w, r)| w * f(r)).sum()
        };
        let mut guess = points[used - 1].clone();
        guess.junction = Celsius::new(sum(|r| r.junction.degrees()));
        guess.coolant_hot = Celsius::new(sum(|r| r.coolant_hot.degrees()));
        guess.coolant_cold = Celsius::new(sum(|r| r.coolant_cold.degrees()));
        guess.coolant_flow = VolumeFlow::from_cubic_meters_per_second(sum(|r| {
            r.coolant_flow.cubic_meters_per_second()
        }));
        let finite = [
            guess.junction.degrees(),
            guess.coolant_hot.degrees(),
            guess.coolant_cold.degrees(),
            guess.coolant_flow.cubic_meters_per_second(),
        ]
        .iter()
        .all(|x| x.is_finite());
        if finite && guess.coolant_flow.cubic_meters_per_second() > 0.0 {
            return SteadySeed::from(&guess);
        }
    }
    SteadySeed::from(history.last().expect("a history"))
}

/// Points of the walk below where the coupled map has two fixed points
/// and the cold solve lands on the hotter one: at 700 s of the SKAT
/// fouling path (utilization 0.9) it converges to a 153.6 °C junction,
/// while its neighbors at 690 s and 710 s and every seeded solve follow
/// the continuous branch near 77.7 °C. A seed cannot match such a cold
/// solve, so it must land where the previous state alone leads (the
/// seed of a drill without history) instead.
const COLD_SOLVE_ON_ANOTHER_BRANCH: [&str; 1] = ["skat/e17/exchanger fouling/t=700s"];

#[test]
fn a_solve_extrapolated_along_a_gradual_fault_path_lands_on_its_cold_solve() {
    // Each gradual E17 fault moves the plant linearly in time, and a
    // drill relinearizes every 10 s, starting each solve from the
    // extrapolation of its last three. Walk every such path at that
    // spacing, with the seeded solves as the history, as a drill keeps
    // it; a solve that fails or finds no circulation restarts it.
    const GRADUAL: [&str; 4] = [
        "impeller wear",
        "exchanger fouling",
        "chiller setpoint drift",
        "coolant leak",
    ];
    let mut misses = Vec::new();
    let mut extrapolated = 0;
    let mut other_branch = Vec::new();
    for (design, (module, bath)) in [
        ("skat", (presets::skat(), ImmersionBath::skat_default())),
        (
            "skat_plus",
            (presets::skat_plus(), ImmersionBath::skat_plus_default()),
        ),
    ] {
        for (script, timeline) in drill_scripts() {
            if !GRADUAL.contains(&script) {
                continue;
            }
            let mut history: Vec<SteadyReport> = Vec::new();
            for step in 0..=120 {
                let t = Seconds::new(10.0 * f64::from(step));
                let Some(model) = degraded_model(&module, &bath, &timeline.state_at(t)) else {
                    history.clear();
                    continue;
                };
                let name = format!("{design}/e17/{script}/t={}s", t.seconds());
                let outcome = |r: &Result<SteadyReport, CoreError>| -> Outcome {
                    r.as_ref()
                        .map(steady_fields)
                        .map_err(|e| error_tag(&name, e))
                };
                let cold = model.solve();
                let solved = match history.last() {
                    None => cold.clone(),
                    Some(last) => {
                        extrapolated += usize::from(history.len() > 1);
                        let solved = model.clone().with_seed(extrapolated_seed(&history)).solve();
                        if COLD_SOLVE_ON_ANOTHER_BRANCH.contains(&name.as_str()) {
                            let (hot, warm) = (cold.as_ref().unwrap(), solved.as_ref().unwrap());
                            assert!(
                                hot.junction.degrees() > warm.junction.degrees() + 10.0,
                                "{name}: the cold solve is back on the seeded branch"
                            );
                            other_branch.push(name.clone());
                            let plain = model.with_seed(SteadySeed::from(last)).solve();
                            compare(&name, &outcome(&plain), &outcome(&solved), &mut misses);
                        } else {
                            compare(&name, &outcome(&cold), &outcome(&solved), &mut misses);
                        }
                        solved
                    }
                };
                match solved {
                    Ok(report) => {
                        history.push(report);
                        if history.len() > 3 {
                            history.remove(0);
                        }
                    }
                    Err(_) => history.clear(),
                }
            }
        }
    }
    assert!(extrapolated > 0, "no solve started from an extrapolation");
    assert_eq!(other_branch, COLD_SOLVE_ON_ANOTHER_BRANCH);
    assert!(
        misses.is_empty(),
        "{} extrapolated field(s) outside tolerance:\n{}",
        misses.len(),
        misses.join("\n")
    );
}

#[test]
fn tolerances_separate_a_solver_error_from_a_physics_change() {
    // a shift the size of the fixed point's stopping error passes ...
    assert_eq!(miss("junction_c", 49.0, 49.0 + 1e-6), None);
    assert_eq!(miss("total_heat_w", 9000.0, 9000.0 * (1.0 + 1e-9)), None);
    // ... a physics change does not
    assert!(miss("junction_c", 49.0, 49.001).is_some());
    assert!(miss("flow_m3s", 0.01, 0.010_001).is_some());
    assert!(miss("pump_power_w", 0.0, 1e-12).is_some());
    assert!(miss("junction_c", 49.0, f64::NAN).is_some());
    assert!(miss("total_heat_w", 9000.0, f64::INFINITY).is_some());
}

#[test]
#[ignore = "rewrites the golden; run only for a deliberate physics change"]
fn regenerate() {
    let path = format!("{}/{GOLDEN}", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, render(&observe())).unwrap_or_else(|e| panic!("{path}: {e}"));
}
