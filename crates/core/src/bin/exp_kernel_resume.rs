//! Kernel resume harness for the CI `kernel-resume` job.
//!
//! Runs the four checkpointable kernel loops — a thermal transient, the
//! SKAT immersion warm-up, a pump-seizure fault drill and an
//! availability Monte-Carlo study — and emits one NDJSON manifest
//! (`RCS_OBS_MANIFEST`, plus traces when `RCS_OBS_TRACE` is set and the
//! golden span tree when `RCS_OBS_SPANS` is set) and a summary table on
//! stdout.
//!
//! With `--split`, every loop is interrupted at a mid-run checkpoint:
//! its state is sealed to snapshot bytes, the live sinks are **thrown
//! away**, and the loop resumes from the bytes into fresh ones. The
//! resume-equivalence contract says the manifest, the traces, the span
//! tree and the stdout table must come out byte-identical to the
//! straight-through run — at every `RCS_THREADS` setting. CI diffs all
//! of them. Each loop runs inside an open span when it checkpoints, so
//! the split exercises the open-span-stack seal/restore path of
//! `SinkState` too.

use rcs_cooling::availability::McSession;
use rcs_cooling::faults::{FaultKind, FaultTimeline};
use rcs_cooling::{risk, CoolingArchitecture, ImmersionBath};
use rcs_core::experiments::{self, Table};
use rcs_core::{DrillSession, FaultDrill, ImmersionModel, WarmupSession};
use rcs_numeric::rng::Rng;
use rcs_obs::span::SpanSink;
use rcs_obs::trace::TraceRecorder;
use rcs_obs::{Registry, Sinks};
use rcs_thermal::{ThermalNetwork, TransientSession};
use rcs_units::{Celsius, Power, Seconds, ThermalResistance};

/// Seed for the drill RNG and the Monte-Carlo study.
const SEED: u64 = 20260808;

/// The sinks of the run. In split mode each loop's checkpoint swaps
/// them wholesale for fresh ones — restoring must then reproduce
/// everything recorded so far, by *any* loop (including the open span
/// stack), or the final manifest diff fails.
struct RunSinks {
    obs: Registry,
    trace: TraceRecorder,
    spans: SpanSink,
}

impl RunSinks {
    fn fresh() -> Self {
        Self {
            obs: Registry::new(),
            trace: TraceRecorder::from_env(),
            spans: SpanSink::from_env(),
        }
    }

    fn bundle(&self) -> Sinks<'_> {
        Sinks {
            obs: &self.obs,
            trace: &self.trace,
            spans: &self.spans,
        }
    }
}

fn run(split: bool) -> (Vec<Table>, RunSinks) {
    let mut sinks = RunSinks::fresh();
    let mut rows: Vec<Vec<String>> = Vec::new();

    // --- 1. thermal transient: a two-node RC chain ------------------
    let mut net = ThermalNetwork::new();
    let amb = net.add_boundary("amb", Celsius::new(25.0));
    let chip = net.add_node_with_capacitance("chip", 60.0);
    let sink = net.add_node_with_capacitance("sink", 400.0);
    net.connect(chip, sink, ThermalResistance::from_kelvin_per_watt(0.08))
        .expect("distinct nodes");
    net.connect(sink, amb, ThermalResistance::from_kelvin_per_watt(0.05))
        .expect("distinct nodes");
    net.add_heat(chip, Power::from_watts(350.0))
        .expect("internal node");
    let initial = net.uniform_initial(Celsius::new(25.0));
    let mut session =
        TransientSession::new(&net, &initial, Seconds::new(120.0), Seconds::new(0.25))
            .expect("valid transient problem");
    sinks.spans.enter("thermal.transient", &sinks.obs);
    if split {
        session.run(&net, 240);
        let bytes = session.checkpoint(sinks.bundle());
        sinks = RunSinks::fresh();
        session = TransientSession::resume(&net, &bytes, sinks.bundle())
            .expect("transient snapshot reopens");
    }
    session.run(&net, u64::MAX);
    let transient = session.finish(&net, sinks.bundle());
    sinks.spans.exit(&sinks.obs);
    rows.push(vec![
        "transient chip °C".to_owned(),
        format!("{:.6}", transient.final_temperature(chip).degrees()),
    ]);

    // --- 2. SKAT immersion warm-up ----------------------------------
    let model = ImmersionModel::skat();
    let mut warmup = WarmupSession::new(
        &model,
        Seconds::minutes(10.0),
        Seconds::new(2.0),
        sinks.bundle(),
    )
    .expect("SKAT warms up");
    sinks.spans.enter("immersion.warmup", &sinks.obs);
    if split {
        warmup.run(150);
        let bytes = warmup.checkpoint(sinks.bundle());
        sinks = RunSinks::fresh();
        warmup =
            WarmupSession::resume(&model, &bytes, sinks.bundle()).expect("warmup snapshot reopens");
    }
    warmup.run(u64::MAX);
    let warm = warmup.finish(sinks.bundle());
    sinks.spans.exit(&sinks.obs);
    rows.push(vec![
        "warmup chip °C".to_owned(),
        format!("{:.6}", warm.final_chip_temperature().degrees()),
    ]);

    // --- 3. pump-seizure fault drill (split lands mid-chaos) --------
    let timeline =
        FaultTimeline::new().with_event(Seconds::minutes(2.0), FaultKind::PumpSeizure { pump: 0 });
    let drill = FaultDrill::skat("kernel_resume", timeline, Seconds::minutes(20.0));
    sinks.spans.enter("drill.session", &sinks.obs);
    let mut drill_session =
        DrillSession::new(&drill, Rng::seed_from_u64(SEED), true, sinks.bundle())
            .expect("baseline solves");
    if split {
        // Scan 90 is one minute after the seizure: filters, alarm votes
        // and the partial outcome are all live in the snapshot.
        drill_session.run(&drill, sinks.bundle(), 90);
        let bytes = drill_session.checkpoint(sinks.bundle());
        sinks = RunSinks::fresh();
        drill_session =
            DrillSession::resume(&drill, &bytes, sinks.bundle()).expect("drill snapshot reopens");
    }
    drill_session.run(&drill, sinks.bundle(), u64::MAX);
    let (outcome, _rng) = drill_session.finish(sinks.bundle());
    sinks.spans.exit(&sinks.obs);
    rows.push(vec![
        "drill peak junction °C".to_owned(),
        format!("{:.6}", outcome.peak_junction.degrees()),
    ]);
    rows.push(vec![
        "drill shut down".to_owned(),
        outcome.shut_down.to_string(),
    ]);

    // --- 4. availability Monte-Carlo (chunk-granular resume) --------
    let classes = risk::failure_classes(&CoolingArchitecture::Immersion(
        ImmersionBath::skat_default(),
    ));
    let threads = rcs_parallel::thread_count();
    let mut mc = McSession::new(3.0, 512, SEED, threads, sinks.bundle());
    sinks.spans.enter("mc.availability", &sinks.obs);
    if split {
        mc.advance(&classes, sinks.bundle(), 4);
        let bytes = mc.checkpoint(sinks.bundle());
        sinks = RunSinks::fresh();
        mc = McSession::resume(&bytes, threads, sinks.bundle()).expect("mc snapshot reopens");
    }
    while mc.advance(&classes, sinks.bundle(), u64::MAX) > 0 {}
    let report = mc.finish();
    sinks.spans.exit(&sinks.obs);
    rows.push(vec![
        "mc mean availability".to_owned(),
        format!("{:.9}", report.mean_availability),
    ]);
    rows.push(vec![
        "mc p05 availability".to_owned(),
        format!("{:.9}", report.p05_availability),
    ]);

    // The title deliberately ignores the mode: straight and split runs
    // must be byte-identical on stdout too.
    let table = Table::new("Kernel resume harness", &["quantity", "value"], rows);
    (vec![table], sinks)
}

fn main() {
    let split = std::env::args().any(|a| a == "--split");
    let (tables, sinks) = run(split);
    experiments::finish_run("kernel_resume", Some(SEED), &tables, sinks.bundle());
}
