//! The workload generators: deterministic per seed, distinct across
//! seeds, and covering what each workload exists to exercise.

use rcs_cooling::faults::FaultKind;
use rcs_hydraulics::layout::ReturnStyle;
use rcs_obs::span::SpanSink;
use rcs_obs::Registry;
use rcs_perfbench::gen::{DrillGen, QueryMixGen, RackGen, FAULT_KINDS, GROUP};
use rcs_perfbench::sinks::{self, Sinks};
use rcs_query::{DesignQuery, QueryEngine, QueryOutcome};

fn query_inputs(seed: u64) -> Vec<u8> {
    QueryMixGen::new(seed).specs(4096).join("\n").into_bytes()
}

fn drill_inputs(seed: u64) -> Vec<u8> {
    let mut gen = DrillGen::new(seed);
    let mut out = String::new();
    for _ in 0..8 {
        for d in gen.group() {
            out.push_str(&format!(
                "{} {:?} {:?} {}\n",
                d.drill.module.name(),
                d.drill.timeline,
                d.noise.state(),
                d.nominal_plant
            ));
        }
    }
    out.into_bytes()
}

fn rack_inputs(seed: u64) -> Vec<u8> {
    format!("{:?}", RackGen::new(seed).designs(256)).into_bytes()
}

#[test]
fn same_seed_gives_identical_inputs_and_another_seed_different_ones() {
    for inputs in [query_inputs, drill_inputs, rack_inputs] {
        assert_eq!(inputs(7), inputs(7));
        assert_ne!(inputs(7), inputs(8));
    }
}

#[test]
fn every_generated_spec_parses() {
    for spec in QueryMixGen::new(3).specs(2048) {
        assert!(DesignQuery::parse(&spec).is_ok(), "{spec}");
    }
}

#[test]
fn query_mix_reuses_coalesces_and_evicts() {
    let mut gen = QueryMixGen::new(11);
    let mut engine = QueryEngine::new(rcs_perfbench::query_mix::CACHE_CAPACITY);
    let obs = Registry::new();
    let sinks = Sinks {
        obs: &obs,
        spans: SpanSink::disabled(),
    };
    for _ in 0..96 {
        let queries: Vec<DesignQuery> = gen
            .specs(GROUP)
            .iter()
            .map(|s| DesignQuery::parse(s).expect("generated specs parse"))
            .collect();
        let outcomes = sinks::run_batch(&mut engine, &queries, 2, sinks);
        assert!(outcomes.iter().all(QueryOutcome::is_ok));
    }
    let snap = obs.snapshot();
    let hit_ratio = snap.counter("query.cache.hits") as f64 / snap.counter("query.requests") as f64;
    assert!((0.35..=0.75).contains(&hit_ratio), "hit ratio {hit_ratio}");
    assert!(snap.counter("query.batch.coalesced") > 0);
    assert!(snap.counter("query.cache.evictions") > 0);
}

fn kind_index(kind: &FaultKind) -> usize {
    match kind {
        FaultKind::PumpSeizure { .. } => 0,
        FaultKind::ImpellerWear { .. } => 1,
        FaultKind::ExchangerFouling { .. } => 2,
        FaultKind::ChillerSetpointDrift { .. } => 3,
        FaultKind::ChillerCapacityLoss { .. } => 4,
        FaultKind::CoolantLeak { .. } => 5,
        FaultKind::ValveStuckPartial { .. } => 6,
        FaultKind::SensorFault { .. } => 7,
    }
}

#[test]
fn drill_fleet_covers_every_fault_kind_and_both_designs() {
    let mut gen = DrillGen::new(5);
    let mut kinds = [false; FAULT_KINDS];
    let mut designs = std::collections::BTreeSet::new();
    for d in (0..4).flat_map(|_| gen.group()) {
        designs.insert(d.drill.module.name().to_owned());
        let events = d.drill.timeline.events();
        assert!((1..=3).contains(&events.len()));
        for e in events {
            kinds[kind_index(&e.kind)] = true;
        }
        let sensors_only = events
            .iter()
            .all(|e| matches!(e.kind, FaultKind::SensorFault { .. }));
        assert_eq!(d.nominal_plant, sensors_only);
    }
    assert!(kinds.iter().all(|&k| k), "{kinds:?}");
    assert_eq!(designs.len(), 2, "{designs:?}");
}

#[test]
fn rack_sweep_spans_chiller_capacity_and_both_return_styles() {
    let designs = RackGen::new(9).designs(64);
    assert!(designs.iter().any(|d| d.modules <= 12));
    assert!(designs.iter().any(|d| d.modules >= 16));
    assert!(designs.iter().any(|d| d.style == ReturnStyle::Direct));
    assert!(designs.iter().any(|d| d.style == ReturnStyle::Reverse));
    assert!(designs
        .iter()
        .all(|d| (1..=32).contains(&d.modules) && (0.5..=1.0).contains(&d.utilization)));
}

#[test]
fn benchmark_json_names_the_printed_metrics_and_workloads() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    for name in rcs_perfbench::WORKLOADS {
        assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
    }
    for (name, unit) in rcs_perfbench::END_TO_END
        .iter()
        .chain(&rcs_perfbench::PER_LAYER)
    {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} [{unit}]"
        );
    }
}
