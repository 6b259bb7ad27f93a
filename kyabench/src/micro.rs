//! Fixed per-call costs of the two executors on a 12-agent ring — the
//! size of the conformance matrix, where thread fork-join is not
//! amortised: a parallel step minus a sequential step, each the median
//! of `reps` timed steps.

use crate::trace::Tracer;
use crate::{median, metric, Metric};
use kya_algos::push_sum::{PushSum, PushSumState};
use kya_graph::{generators, Digraph};
use kya_runtime::{Execution, FlatExecution, Isotropic};
use std::time::Instant;

const RING: usize = 12;
const THREADS: usize = 2;

fn timed_us(reps: usize, mut step: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            step();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

fn states() -> Vec<PushSumState> {
    let values: Vec<f64> = (0..RING).map(|i| i as f64).collect();
    PushSumState::averaging(&values)
}

pub fn measure(reps: usize, tracer: &Tracer) -> Vec<Metric> {
    let g: Digraph = generators::directed_ring(RING).with_self_loops();
    tracer.span(None, "bench.micro", |root| {
        let mut flat = FlatExecution::new(PushSum, &g, PushSumState::columns(&states()));
        let flat_seq = tracer.span(Some(root), "runtime.flat.step_batch", |_| {
            timed_us(reps, || flat.step())
        });
        let flat_par = tracer.span(Some(root), "runtime.flat.step_batch", |_| {
            timed_us(reps, || flat.step_threads(THREADS))
        });
        let mut boxed = Execution::new(Isotropic(PushSum), states());
        let boxed_seq = tracer.span(Some(root), "runtime.execution.step_batch", |_| {
            timed_us(reps, || boxed.step(&g))
        });
        let boxed_par = tracer.span(Some(root), "runtime.execution.step_batch", |_| {
            timed_us(reps, || boxed.step_parallel(&g, THREADS))
        });
        vec![
            metric(
                "runtime.flat.fork_join_us",
                median(&flat_par) - median(&flat_seq),
                "us",
            ),
            metric(
                "runtime.execution.fork_join_us",
                median(&boxed_par) - median(&boxed_seq),
                "us",
            ),
            metric("runtime.execution.step_us", median(&boxed_seq), "us"),
        ]
    })
}
