//! `census-exact`: the paper's Table 1 outdegree-awareness census.
//!
//! One job is one random strongly connected digraph of a few dozen
//! agents: `Isotropic(CensusOutdegree)` runs `n + D + 6` rounds, then
//! every agent's output is computed — a candidate-base extraction from
//! its view followed by the exact ℚ kernel solve of eq. (1). Each
//! agent's census is an item. The work is sequential and bound by
//! exact arithmetic; it bypasses threads and the flat engine.

use crate::trace::Tracer;
use crate::{keep_going, median, metric, mix, Checks, Measured, Metric, RunArgs, SetupClock};
use kya_algos::frequency::{census_from_outdegree_base, CensusOutdegree, FibreCensus};
use kya_algos::min_base::ViewState;
use kya_algos::views::{candidate_base, ClassMode};
use kya_arith::{BigInt, BigRational};
use kya_graph::{connectivity, generators, Digraph};
use kya_runtime::{Execution, Isotropic, IsotropicAlgorithm};
use std::collections::BTreeMap;
use std::time::Instant;

/// Distinct input values an agent may hold.
pub const VALUES: u64 = 4;

/// One job's inputs and its execution, before any round ran.
pub struct Job {
    pub graph: Digraph,
    pub values: Vec<u64>,
    pub rounds: u64,
    pub exec: Execution<Isotropic<CensusOutdegree>>,
}

/// Job `index` of the run with workload seed `seed`: graph, values
/// `1..=VALUES`, the `n + D + 6` round budget and the execution.
pub fn setup(n: usize, seed: u64, index: u64) -> Job {
    let s = mix(seed ^ mix(index));
    let graph = generators::random_strongly_connected(n, 2 * n, s).with_self_loops();
    let values: Vec<u64> = (0..n as u64)
        .map(|i| 1 + mix(s ^ mix(i)) % VALUES)
        .collect();
    let d = connectivity::diameter(&graph).expect("the graph is strongly connected");
    let exec = Execution::new(Isotropic(CensusOutdegree), ViewState::initial(&values));
    Job {
        graph,
        values,
        rounds: (n + d + 6) as u64,
        exec,
    }
}

/// The frequency of each value among `values`, sorted by value — what
/// every agent's census must equal.
pub fn true_frequencies(values: &[u64]) -> Vec<(u64, BigRational)> {
    let mut counts: BTreeMap<u64, i64> = BTreeMap::new();
    for &v in values {
        *counts.entry(v).or_default() += 1;
    }
    counts
        .into_iter()
        .map(|(v, c)| (v, BigRational::from_i64(c, values.len() as i64)))
        .collect()
}

pub fn census_correct(expected: &[(u64, BigRational)], census: Option<&FibreCensus>) -> bool {
    census.is_some_and(|c| c.frequencies() == expected)
}

/// One check per agent: its census equals the true frequencies of
/// `values`.
pub fn record_outputs(values: &[u64], outputs: &[Option<FibreCensus>], checks: &mut Checks) {
    let expected = true_frequencies(values);
    for out in outputs {
        checks.record(census_correct(&expected, out.as_ref()));
    }
}

pub fn run_rounds(job: &mut Job) {
    for _ in 0..job.rounds {
        job.exec.step(&job.graph);
    }
}

/// Untraced run: jobs until the closed loop stops, with the set-up
/// blocks `census_setups` asks for spread between them (median is
/// `setup_s`). A job's rounds and outputs are the measured time; each
/// agent's census is checked against the true frequencies.
pub fn measure(args: &RunArgs, checks: &mut Checks) -> Measured {
    let start = Instant::now();
    let n = args.scale.census_n;
    let mut m = Measured::new(args.scale.census_min_jobs);
    let make = |i: usize| setup(n, args.seed, i as u64);
    let mut clock = SetupClock::new(args.scale.census_setups, args.seconds);
    let mut last = 0.0;
    let mut index = 0;
    while keep_going(
        start.elapsed().as_secs_f64(),
        last,
        args.seconds,
        &m,
        &args.scale,
    ) {
        clock.tick(start.elapsed().as_secs_f64(), make);
        let mut job = setup(n, args.seed, index);
        index += 1;

        let t = Instant::now();
        run_rounds(&mut job);
        let mut outputs = Vec::with_capacity(n);
        for state in job.exec.states() {
            let t = Instant::now();
            outputs.push(CensusOutdegree.output(state));
            m.items_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        last = t.elapsed().as_secs_f64();
        m.job(n as f64, last);

        record_outputs(&job.values, &outputs, checks);
    }
    m.setups_s = clock.finish(make);
    m
}

/// Jobs of a traced run.
const TRACED_JOBS: u64 = 4;

/// Traced run: jobs with their rounds and each output split into the
/// candidate-base extraction and the kernel solve. When `baseline`, the
/// same job also runs untraced, interleaved round block by round block
/// and agent by agent, so host drift hits both sides alike.
pub fn traced(
    args: &RunArgs,
    tracer: &Tracer,
    checks: &mut Checks,
    metrics: &mut Vec<Metric>,
    baseline: bool,
) -> Option<(f64, f64)> {
    let n = args.scale.census_n;
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    let mut dag_sizes = Vec::new();
    let mut ray_bits = 0;
    for index in 0..TRACED_JOBS {
        let mut plain = baseline.then(|| setup(n, args.seed, index));
        if let Some(job) = &mut plain {
            let t = Instant::now();
            run_rounds(job);
            untraced_s += t.elapsed().as_secs_f64();
        }
        let mut plain_outputs = Vec::new();
        tracer.span(None, "bench.census-exact", |root| {
            let mut job = tracer.span(Some(root), "graph.generators.census", |_| {
                setup(n, args.seed, index)
            });
            let t = Instant::now();
            tracer.span(Some(root), "runtime.execution.census_steps", |_| {
                run_rounds(&mut job)
            });
            traced_s += t.elapsed().as_secs_f64();
            let mut outputs = Vec::with_capacity(n);
            for (v, state) in job.exec.states().iter().enumerate() {
                if let Some(plain) = &plain {
                    let t = Instant::now();
                    plain_outputs.push(CensusOutdegree.output(&plain.exec.states()[v]));
                    untraced_s += t.elapsed().as_secs_f64();
                }
                let t = Instant::now();
                let cb = tracer.span(Some(root), "algos.views.candidate_base", |_| {
                    candidate_base(&state.view, ClassMode::OutdegreePairs)
                });
                outputs.push(tracer.span(Some(root), "arith.linalg.kernel", |_| {
                    cb.and_then(|cb| census_from_outdegree_base(&cb).ok())
                }));
                traced_s += t.elapsed().as_secs_f64();
            }
            record_outputs(&job.values, &outputs, checks);
            dag_sizes.extend(job.exec.states().iter().map(|s| s.view.dag_size() as f64));
            for c in outputs.iter().flatten() {
                ray_bits = ray_bits.max(c.ray().iter().map(BigInt::bits).max().unwrap_or(0));
            }
        });
        if let Some(plain) = &plain {
            record_outputs(&plain.values, &plain_outputs, checks);
        }
    }
    let per_call_ms = |name: &str| 1e3 * tracer.total_s(name) / tracer.count(name).max(1) as f64;
    metrics.extend([
        metric(
            "runtime.execution.census_steps_ms",
            per_call_ms("runtime.execution.census_steps"),
            "ms",
        ),
        metric(
            "algos.views.candidate_base_ms",
            per_call_ms("algos.views.candidate_base"),
            "ms",
        ),
        metric("algos.views.dag_size", median(&dag_sizes), "count"),
        metric(
            "arith.linalg.kernel_ms",
            per_call_ms("arith.linalg.kernel"),
            "ms",
        ),
        metric("arith.linalg.kernel_ray_bits", ray_bits as f64, "bits"),
    ]);
    baseline.then_some((traced_s, untraced_s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn true_frequencies_are_normalised_counts() {
        let f = true_frequencies(&[2, 1, 2, 2]);
        assert_eq!(
            f,
            vec![
                (1, BigRational::from_i64(1, 4)),
                (2, BigRational::from_i64(3, 4))
            ]
        );
    }
}
