//! The benchmark's own contract: every workload prints every metric
//! `BENCHMARK.json` names, with that metric's unit, and a corrupted
//! output is counted as a failed check. Runs at the tiny scale; use
//! `cargo test --release` to keep it quick.

use kya_algos::FibreCensus;
use kya_arith::BigInt;
use kya_conformance::CheckKind;
use kya_harness::{CellOutcome, CellRecord, ExperimentSpec, ResultSink};
use kya_runtime::FlatExecution;
use kyabench::{census, check, flat, run, Checks, RunArgs, Scale, Workload};
use serde::Value;
use std::collections::BTreeMap;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Value::from_json(&text).expect("BENCHMARK.json parses")
}

/// `name → unit` of one metric section of `BENCHMARK.json`.
fn declared(doc: &Value, section: &str) -> BTreeMap<String, String> {
    doc.field(section)
        .expect("metric section")
        .as_seq()
        .expect("metric list")
        .iter()
        .map(|m| {
            let name = m.field("name").unwrap().as_str().unwrap().to_string();
            let unit = m.field("unit").unwrap().as_str().unwrap().to_string();
            (name, unit)
        })
        .collect()
}

fn tiny(workload: Workload, trace: bool) -> RunArgs {
    RunArgs {
        workload,
        seed: 5,
        seconds: 0.0,
        trace,
        scale: Scale::tiny(),
        trace_dir: None,
    }
}

#[test]
fn benchmark_json_names_the_workloads() {
    let doc = benchmark_json();
    let names: Vec<&str> = doc
        .field("workloads")
        .unwrap()
        .as_seq()
        .unwrap()
        .iter()
        .map(|w| w.field("name").unwrap().as_str().unwrap())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    let doc = benchmark_json();
    for trace in [false, true] {
        let section = if trace { "per_layer" } else { "end_to_end" };
        let want = declared(&doc, section);
        for w in Workload::ALL {
            let outcome = run(&tiny(w, trace));
            let line = Value::from_json(&outcome.to_json()).expect("result line is JSON");
            let keys: Vec<&str> = line
                .as_map()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                line.get("correct"),
                Some(&Value::Bool(true)),
                "{}",
                w.name()
            );
            let got: BTreeMap<String, String> = line
                .field("metrics")
                .unwrap()
                .as_map()
                .unwrap()
                .iter()
                .map(|(name, m)| {
                    let value = m.field("value").unwrap();
                    assert!(matches!(value, Value::Float(_)), "{name} is not a number");
                    (
                        name.clone(),
                        m.field("unit").unwrap().as_str().unwrap().to_string(),
                    )
                })
                .collect();
            assert_eq!(got, want, "{} with trace {trace}", w.name());
        }
    }
}

#[test]
fn a_perturbed_census_is_a_failed_check() {
    let mut job = census::setup(8, 3, 0);
    census::run_rounds(&mut job);
    let mut outputs = job.exec.outputs();
    let mut checks = Checks::default();
    census::record_outputs(&job.values, &outputs, &mut checks);
    assert_eq!(
        checks,
        Checks {
            attempted: 8,
            failed: 0
        }
    );

    // One agent counts its first fibre once too often; another never
    // stabilised.
    let c = outputs[3].clone().expect("stabilised census");
    let mut ray = c.ray().to_vec();
    ray[0] = &ray[0] + &BigInt::from(1);
    outputs[3] = Some(FibreCensus::new(c.values().to_vec(), ray));
    outputs[5] = None;
    let mut checks = Checks::default();
    census::record_outputs(&job.values, &outputs, &mut checks);
    assert_eq!(
        checks,
        Checks {
            attempted: 8,
            failed: 2
        }
    );
}

#[test]
fn lost_push_sum_mass_is_a_failed_check() {
    let g = flat::graph(1_000, 9);
    let values = flat::values(1_000, 9);
    let states = kya_algos::push_sum::PushSumState::averaging(&values);
    let mut exec = FlatExecution::new(
        kya_algos::push_sum::PushSum,
        &g,
        kya_algos::push_sum::PushSumState::columns(&states),
    );
    let initial = flat::masses(&exec);
    exec.run(20, 2);
    let now = flat::masses(&exec);
    assert_eq!(flat::masses_conserved(initial, now, 20, 16), [true, true]);
    // One agent's mass share lost in transit.
    let lost = (now.0 - exec.lane(0)[17], now.1);
    assert_eq!(flat::masses_conserved(initial, lost, 20, 16), [false, true]);
}

#[test]
fn a_failing_conformance_cell_is_a_failed_check() {
    let spec = ExperimentSpec::new("conformance-demo")
        .topologies(["ring:{n}"])
        .sizes([4, 6]);
    let cells = spec.cells();
    let mut sink = ResultSink::new();
    sink.push(CellRecord::new(
        &spec,
        &cells[0],
        CellOutcome::new().ok(true),
    ));
    sink.push(CellRecord::new(
        &spec,
        &cells[1],
        CellOutcome::new().ok(false),
    ));
    let results = vec![(CheckKind::Paths, sink)];
    let ndjson = kya_conformance::to_ndjson(&results);
    let mut checks = Checks::default();
    check::record_results(&results, &ndjson, &mut checks);
    assert_eq!(
        checks,
        Checks {
            attempted: 3,
            failed: 1
        }
    );
}
