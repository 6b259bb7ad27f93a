//! `check-full`: the full conformance matrix (`kya check --matrix
//! full`) at two workers, with its NDJSON rendered.
//!
//! One job is one pass over the matrix, kind by kind: each check kind's
//! cells run on the harness worker pool, then are rendered as NDJSON. Graphs have at
//! most twelve agents, so fixed per-call costs (thread fork-join,
//! per-round allocation) dominate — the other end of the size axis from
//! `flat-1m`, through the same runtime layers.

use crate::trace::{Ctx, Tracer};
use crate::{keep_going, metric, mix, Checks, Measured, Metric, RunArgs, SetupClock};
use kya_conformance::CheckKind;
use kya_harness::{ExperimentSpec, ResultSink, Runner};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;
use std::time::Instant;

/// Harness workers (the host has two CPUs).
pub const WORKERS: usize = 2;

/// The matrix with seeds drawn from the workload seed: each spec's base
/// seed (which fixes every cell's seed) and its seed axis (which fixes
/// the random and dynamic topologies).
pub fn reseeded_matrix(args: &RunArgs) -> Vec<(CheckKind, ExperimentSpec)> {
    kya_conformance::specs(args.scale.matrix)
        .into_iter()
        .enumerate()
        .map(|(i, (kind, spec))| {
            let salt = mix(args.seed ^ mix(i as u64));
            let axis = spec
                .cells()
                .iter()
                .map(|c| c.seed)
                .collect::<BTreeSet<_>>()
                .len();
            let spec = spec
                .base_seed(salt)
                .seeds((0..axis as u64).map(|j| 1 + mix(salt ^ j) % 1_000_000));
            (kind, spec)
        })
        .collect()
}

fn cell_count(matrix: &[(CheckKind, ExperimentSpec)]) -> usize {
    matrix.iter().map(|(_, spec)| spec.cells().len()).sum()
}

/// Latency in ms of each cell, keyed by (check kind, cell index).
type Latencies = Mutex<BTreeMap<(&'static str, usize), f64>>;

/// One check kind: its cells on the worker pool, then their NDJSON. Each
/// cell's latency goes to `items`, keeping the smaller of a cell's
/// passes.
fn run_kind(
    (kind, spec): &(CheckKind, ExperimentSpec),
    tracer: &Tracer,
    root: Option<Ctx>,
    items: &Latencies,
) -> ([(CheckKind, ResultSink); 1], String) {
    let runner = format!("harness.runner.{}", kind.name());
    let cell = format!("conformance.{}", kind.name());
    let sink = tracer.span(root, &runner, |ctx| {
        Runner::new(spec).workers(WORKERS).run(|c| {
            let t = Instant::now();
            let out = tracer.span(Some(ctx), &cell, |_| kind.run(c));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let mut items = items.lock().expect("latency buffer lock");
            let best = items.entry((kind.name(), c.cell.index)).or_insert(ms);
            *best = best.min(ms);
            out
        })
    });
    let results = [(*kind, sink)];
    let ndjson = tracer.span(root, "harness.sink.ndjson", |_| {
        kya_conformance::to_ndjson(&results)
    });
    (results, ndjson)
}

/// Count every cell as one check, failed when its oracle failed, and the
/// rendered stream as one more, failed unless it holds one line per cell.
pub fn record_results(results: &[(CheckKind, ResultSink)], ndjson: &str, checks: &mut Checks) {
    let cells: usize = results.iter().map(|(_, sink)| sink.len()).sum();
    let failed = kya_conformance::failure_count(results);
    checks.attempted += cells as u64;
    checks.failed += failed as u64;
    checks.record(ndjson.lines().count() == cells);
}

/// Untraced run: passes until the closed loop stops, kind by kind, with
/// the matrix builds `check_setups` asks for spread between the kinds
/// (median is `setup_s`). A pass's time is the sum of its kinds' times,
/// each with its NDJSON rendered. A run holds two passes of some 15 s
/// each on a host whose speed drifts by seconds-long episodes, so it
/// reports its fastest pass, and each cell's fastest time as its
/// latency.
pub fn measure(args: &RunArgs, checks: &mut Checks) -> Measured {
    let start = Instant::now();
    let mut m = Measured {
        best_job: true,
        ..Measured::new(args.scale.check_min_jobs)
    };
    let make = |_| reseeded_matrix(args);
    let mut clock = SetupClock::new(args.scale.check_setups, args.seconds);
    let matrix = reseeded_matrix(args);
    assert!(cell_count(&matrix) > 0, "the conformance matrix has cells");
    let tracer = Tracer::off();
    let items = Latencies::default();
    let mut last = 0.0;
    while keep_going(
        start.elapsed().as_secs_f64(),
        last,
        args.seconds,
        &m,
        &args.scale,
    ) {
        last = 0.0;
        for kind in &matrix {
            clock.tick(start.elapsed().as_secs_f64(), make);
            let t = Instant::now();
            let (results, ndjson) = run_kind(kind, &tracer, None, &items);
            last += t.elapsed().as_secs_f64();
            record_results(&results, &ndjson, checks);
        }
        let best = items.lock().expect("latency buffer lock");
        m.job(best.len() as f64, last);
        m.items_ms = best.values().copied().collect();
    }
    m.setups_s = clock.finish(make);
    m
}

/// Traced run: one traced pass (per-kind wall time, worker busy ratio,
/// NDJSON render time). When `baseline`, each kind also runs untraced
/// just before its traced run, so host drift hits both sides alike.
pub fn traced(
    args: &RunArgs,
    tracer: &Tracer,
    checks: &mut Checks,
    metrics: &mut Vec<Metric>,
    baseline: bool,
) -> Option<(f64, f64)> {
    let matrix = reseeded_matrix(args);
    let items = Latencies::default();
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    tracer.span(None, "bench.check-full", |root| {
        for kind in &matrix {
            if baseline {
                let t = Instant::now();
                let (results, ndjson) = run_kind(kind, &Tracer::off(), None, &Latencies::default());
                untraced_s += t.elapsed().as_secs_f64();
                record_results(&results, &ndjson, checks);
            }
            let t = Instant::now();
            let (results, ndjson) = run_kind(kind, tracer, Some(root), &items);
            traced_s += t.elapsed().as_secs_f64();
            record_results(&results, &ndjson, checks);
        }
    });

    let kinds: Vec<&str> = matrix.iter().map(|(k, _)| k.name()).collect();
    let runner_s: f64 = kinds
        .iter()
        .map(|k| tracer.total_s(&format!("harness.runner.{k}")))
        .sum();
    let cells_ms: f64 = items
        .into_inner()
        .expect("latency buffer lock")
        .values()
        .sum();
    for k in kinds {
        metrics.push(metric(
            format!("conformance.{k}_s"),
            tracer.total_s(&format!("harness.runner.{k}")),
            "s",
        ));
    }
    metrics.push(metric(
        "harness.runner.busy_ratio",
        cells_ms / 1e3 / (WORKERS as f64 * runner_s),
        "ratio",
    ));
    metrics.push(metric(
        "harness.sink.ndjson_ms",
        1e3 * tracer.total_s("harness.sink.ndjson"),
        "ms",
    ));
    baseline.then_some((traced_s, untraced_s))
}
