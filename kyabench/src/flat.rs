//! `flat-1m`: flat Push-Sum on a million-agent random strongly
//! connected digraph, stepped at two threads.
//!
//! One job is one round. The workload is bound by memory traffic: about
//! four message slots per agent, every one written, gathered and folded
//! each round. It bypasses the arithmetic, view, harness and
//! conformance layers.

use crate::trace::Tracer;
use crate::{
    compensated_sum, keep_going, metric, mix, time_setups, Checks, Measured, Metric, RunArgs,
};
use kya_algos::push_sum::{PushSum, PushSumState};
use kya_graph::{generators, Digraph, RoutingPlan};
use kya_runtime::{CountingProbe, FlatAlgorithm, FlatExecution};
use std::hint::black_box;
use std::time::Instant;

/// Threads of the measured rounds (the host has two CPUs).
pub const THREADS: usize = 2;

/// The graph: `n` agents on a random Hamiltonian cycle plus `2n` random
/// extra edges, with the self-loops the model requires.
pub fn graph(n: usize, seed: u64) -> Digraph {
    generators::random_strongly_connected(n, 2 * n, seed).with_self_loops()
}

/// Initial values, uniform in `[0, 100)`.
pub fn values(n: usize, seed: u64) -> Vec<f64> {
    (0..n as u64)
        .map(|i| (mix(seed ^ mix(i)) >> 11) as f64 / (1u64 << 53) as f64 * 100.0)
        .collect()
}

fn build(g: &Digraph, values: &[f64]) -> FlatExecution<PushSum> {
    let states = PushSumState::averaging(values);
    FlatExecution::new(PushSum, g, PushSumState::columns(&states))
}

/// `(Σ y, Σ z)` over all agents, compensated.
pub fn masses<A: FlatAlgorithm>(exec: &FlatExecution<A>) -> (f64, f64) {
    (compensated_sum(exec.lane(0)), compensated_sum(exec.lane(1)))
}

fn max_indegree<A: FlatAlgorithm>(exec: &FlatExecution<A>) -> usize {
    let plan = exec.plan();
    (0..plan.n()).map(|v| plan.indegree(v)).max().unwrap_or(0)
}

/// Conservation bound on a Push-Sum mass after `rounds` rounds. A round
/// rounds each share once and each inbox sum of `k ≤ Δ` terms with
/// error at most `(k - 1)·u` of its magnitude, so the total drifts by at
/// most `Δ·u·Σ` per round (`u = ε/2`). The compensated sums add about
/// `2u·Σ` each; the bound is `(rounds·Δ + 4)·ε·Σ`.
pub fn mass_bound(rounds: u64, max_indegree: usize, initial: f64) -> f64 {
    (rounds as f64 * max_indegree as f64 + 4.0) * f64::EPSILON * initial.abs()
}

/// Both masses conserved within [`mass_bound`].
pub fn masses_conserved(
    initial: (f64, f64),
    now: (f64, f64),
    rounds: u64,
    max_in: usize,
) -> [bool; 2] {
    [
        (now.0 - initial.0).abs() <= mass_bound(rounds, max_in, initial.0),
        (now.1 - initial.1).abs() <= mass_bound(rounds, max_in, initial.1),
    ]
}

pub fn outputs_finite<A: FlatAlgorithm>(exec: &FlatExecution<A>) -> bool {
    exec.outputs().iter().all(|x| x.is_finite())
}

/// FNV-1a over the bit patterns of both state lanes.
pub fn digest<A: FlatAlgorithm>(exec: &FlatExecution<A>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for lane in 0..2 {
        for x in exec.lane(lane) {
            for b in x.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// Untraced run: set up as `flat_setups` says (median is `setup_s`),
/// then step until the closed loop stops, checking both masses every
/// round and every output at the end. The run's clock starts before the
/// set-ups. Returns the timings and the engine's resident bytes.
pub fn measure(args: &RunArgs, checks: &mut Checks) -> (Measured, usize) {
    let start = Instant::now();
    let n = args.scale.flat_n;
    let mut m = Measured::new(args.scale.flat_min_jobs);
    let (setups_s, mut exec) = time_setups(args.scale.flat_setups, |_| {
        build(&graph(n, args.seed), &values(n, args.seed))
    });
    m.setups_s = setups_s;
    let max_in = max_indegree(&exec);
    let initial = masses(&exec);
    let mut last = 0.0;
    while keep_going(
        start.elapsed().as_secs_f64(),
        last,
        args.seconds,
        &m,
        &args.scale,
    ) {
        let t = Instant::now();
        exec.step_threads(THREADS);
        last = t.elapsed().as_secs_f64();
        m.items_ms.push(last * 1e3);
        m.job(n as f64, last);
        for ok in masses_conserved(initial, masses(&exec), exec.round(), max_in) {
            checks.record(ok);
        }
    }
    checks.record(outputs_finite(&exec));
    (m, exec.resident_bytes())
}

/// `dst[2s..2s+2] = src[2g..2g+2]` for every slot `s` fed by send slot
/// `g`: the engine's gather, over buffers of the engine's size.
fn replay_gather(gather: &[usize], src: &[f64], dst: &mut [f64]) {
    for (out, &g) in dst.chunks_exact_mut(2).zip(gather) {
        out.copy_from_slice(&src[2 * g..2 * g + 2]);
    }
}

/// Traced run: time graph generation, the routing-plan build, a gather
/// replay, and rounds at two threads (probed, interleaved with untraced
/// rounds for the overhead) and at one thread (for the scaling
/// efficiency and the 1-vs-2-thread digest check). Returns the traced
/// and untraced time of the same number of rounds when `baseline`.
pub fn traced(
    args: &RunArgs,
    tracer: &Tracer,
    checks: &mut Checks,
    metrics: &mut Vec<Metric>,
    baseline: bool,
) -> Option<(f64, f64)> {
    let n = args.scale.flat_n;
    let rounds = args.scale.flat_traced_rounds;
    tracer.span(None, "bench.flat-1m", |root| {
        let g = tracer.span(Some(root), "graph.generators.random", |_| {
            graph(n, args.seed)
        });
        let plan = tracer.span(Some(root), "graph.csr.plan_build", |_| RoutingPlan::new(&g));
        let slots = plan.slots();
        let src = vec![1.0f64; 2 * slots];
        let mut dst = vec![0.0f64; 2 * slots];
        for _ in 0..5 {
            tracer.span(Some(root), "graph.csr.gather_replay", |_| {
                replay_gather(plan.gather(), black_box(&src), &mut dst)
            });
        }
        black_box(&dst);
        drop((plan, src, dst));

        let vals = values(n, args.seed);
        let mut exec = tracer.span(Some(root), "runtime.flat.new", |_| build(&g, &vals));
        let max_in = max_indegree(&exec);
        let initial = masses(&exec);
        let bytes_per_agent = exec.resident_bytes() as f64 / n as f64;
        // The first round touches the message buffers' pages for the
        // first time; keep it out of both sides.
        exec.step_threads(THREADS);
        let mut probe = CountingProbe::new();
        let (mut untraced_s, mut traced_s) = (0.0, 0.0);
        for _ in 0..rounds {
            let t = Instant::now();
            exec.step_threads(THREADS);
            untraced_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            tracer.span(Some(root), "runtime.flat.step", |_| {
                exec.step_probed(THREADS, &mut probe)
            });
            traced_s += t.elapsed().as_secs_f64();
        }
        for ok in masses_conserved(initial, masses(&exec), exec.round(), max_in) {
            checks.record(ok);
        }
        checks.record(outputs_finite(&exec));
        let two = digest(&exec);
        let total_rounds = exec.round();
        drop(exec);

        let mut exec = tracer.span(Some(root), "runtime.flat.new", |_| build(&g, &vals));
        drop(g);
        let mut probe1 = CountingProbe::new();
        exec.step(); // untimed first round, as above
        let t = Instant::now();
        for _ in 1..total_rounds {
            tracer.span(Some(root), "runtime.flat.step", |_| {
                exec.step_probed(1, &mut probe1)
            });
        }
        let one_s = t.elapsed().as_secs_f64();
        checks.record(digest(&exec) == two);

        let r = rounds as f64;
        let times = probe.timing();
        let summary = probe.summary();
        let (l, s) = (2.0, slots as f64);
        // One pass over each array a round touches: both offset arrays,
        // the gather list, state read and write, the send buffer written
        // then gathered, and the arena written.
        let moved = 8.0 * (2.0 * (n as f64 + 1.0) + s + 2.0 * l * n as f64 + 3.0 * 2.0 * s);
        let rate_two = r / traced_s;
        let rate_one = (total_rounds - 1) as f64 / one_s;
        metrics.extend([
            metric(
                "graph.generators.random_s",
                tracer.total_s("graph.generators.random"),
                "s",
            ),
            metric(
                "graph.csr.plan_build_s",
                tracer.total_s("graph.csr.plan_build"),
                "s",
            ),
            metric(
                "graph.csr.gather_replay_ms",
                1e3 * tracer.total_s("graph.csr.gather_replay") / 5.0,
                "ms",
            ),
            metric(
                "runtime.flat.send_ms_per_round",
                times.send_us as f64 / 1e3 / r,
                "ms",
            ),
            metric(
                "runtime.flat.transition_ms_per_round",
                times.transition_us as f64 / 1e3 / r,
                "ms",
            ),
            metric("runtime.flat.bytes_per_agent", bytes_per_agent, "B"),
            metric("runtime.flat.bytes_moved_per_round", moved, "B"),
            metric(
                "runtime.flat.messages_routed_per_round",
                summary.messages_routed as f64 / r,
                "count",
            ),
            metric(
                "runtime.flat.scaling_eff",
                rate_two / (2.0 * rate_one),
                "ratio",
            ),
        ]);
        baseline.then_some((traced_s, untraced_s))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_replay_copies_both_lanes() {
        let src = [1.0, 2.0, 3.0, 4.0];
        let mut dst = [0.0; 6];
        replay_gather(&[1, 0, 1], &src, &mut dst);
        assert_eq!(dst, [3.0, 4.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn values_depend_on_the_seed_only() {
        assert_eq!(values(100, 7), values(100, 7));
        assert_ne!(values(100, 7), values(100, 8));
        assert!(values(1000, 1).iter().all(|v| (0.0..100.0).contains(v)));
    }
}
