//! Probed flat runs: the deterministic probe stream is **bitwise**
//! identical at every thread count, its counters restate the routing
//! plan's ground truth, measured flat drives report convergence exactly
//! like the boxed executor, and the resident-footprint numbers pin the
//! EXPERIMENTS.md figures. The `NullProbe` path is behaviorally
//! indistinguishable from the unprobed engine.

use kya_algos::push_sum::{PushSum, PushSumState};
use kya_graph::{generators, Digraph, StaticGraph};
use kya_runtime::metric::EuclideanMetric;
use kya_runtime::{
    CountingProbe, Execution, FlatExecution, FlatRunConfig, Isotropic, NullProbe, RunConfig,
};
use proptest::prelude::*;

fn values_for(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as u64 * 37 + seed) % 101) as f64)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The probe's NDJSON stream — merged per-round counters plus the
    /// strided sample digests — is byte-identical at 1, 2, and 4
    /// threads on random seeded digraphs: per-shard accounting merges
    /// in canonical shard order, so the shard layout never leaks.
    #[test]
    fn probe_stream_is_bitwise_identical_across_thread_counts(
        n in 3usize..24,
        extra in 0usize..30,
        seed in 0u64..1000,
        rounds in 1u64..12,
    ) {
        let g = generators::random_strongly_connected(n, extra, seed).with_self_loops();
        let states = PushSumState::columns(&PushSumState::averaging(&values_for(n, seed)));
        let mut baseline: Option<(String, CountingProbe)> = None;
        for threads in [1usize, 2, 4] {
            let mut exec = FlatExecution::new(PushSum, &g, states.clone());
            let mut probe = CountingProbe::new();
            exec.run_probed(rounds, threads, &mut probe);
            let stream = probe.to_ndjson();
            match &baseline {
                None => baseline = Some((stream, probe)),
                Some((base_stream, base_probe)) => {
                    prop_assert_eq!(
                        base_stream, &stream,
                        "probe stream diverged at {} threads", threads
                    );
                    prop_assert_eq!(base_probe.events(), probe.events());
                    prop_assert_eq!(base_probe.summary(), probe.summary());
                }
            }
        }
    }
}

/// Every per-round event restates the routing plan: a round routes
/// exactly `plan.slots()` messages and regathers every inbox slot.
#[test]
fn probe_counters_match_the_routing_plan() {
    let n = 17;
    let g = generators::random_strongly_connected(n, 2 * n, 5).with_self_loops();
    let states = PushSumState::columns(&PushSumState::averaging(&values_for(n, 5)));
    let rounds = 9u64;
    let mut exec = FlatExecution::new(PushSum, &g, states);
    let slots = exec.plan().slots() as u64;
    let mut probe = CountingProbe::new();
    exec.run_probed(rounds, 3, &mut probe);
    assert_eq!(probe.events().len() as u64, rounds);
    for event in probe.events() {
        assert_eq!(event.messages_routed, slots);
        assert_eq!(event.arena_bytes, slots * 2 * 8, "MSG_LANES=2 f64 slots");
        // Lane writes: `slots × MSG_LANES` delivered by the send phase,
        // the same gathered, plus one `STATE_LANES` write per agent.
        assert_eq!(event.lane_writes, 4 * slots + 2 * n as u64);
    }
    let summary = probe.summary();
    assert_eq!(summary.rounds, rounds);
    assert_eq!(summary.messages_routed, rounds * slots);
    assert_eq!(summary.arena_high_water_bytes, slots * 16);
}

/// A measured flat drive reports `converged_at` (and the residual
/// trajectory behind it) exactly like the boxed executor's measured
/// drive — the `RunConfig::measure` parity gap the probe PR closes.
#[test]
fn measured_flat_drive_matches_boxed_convergence() {
    let n = 12;
    let g = generators::random_strongly_connected(n, 3 * n, 11).with_self_loops();
    let values = values_for(n, 11);
    let target = values.iter().sum::<f64>() / n as f64;
    let states = PushSumState::averaging(&values);
    let rounds = 400u64;
    let eps = 1e-9;

    let net = StaticGraph::new(g.clone());
    let mut boxed = Execution::new(Isotropic(PushSum), states.clone());
    let boxed_report = boxed.drive(
        &net,
        RunConfig::rounds(rounds)
            .measure(&EuclideanMetric, &target, eps)
            .confirm(2),
    );
    assert!(
        boxed_report.converged_at.is_some(),
        "budget large enough to converge"
    );

    for threads in [1usize, 2, 4] {
        let mut flat = FlatExecution::new(PushSum, &g, PushSumState::columns(&states));
        let report = flat.drive(
            FlatRunConfig::rounds(rounds)
                .threads(threads)
                .measure(target, eps)
                .confirm(2),
        );
        assert_eq!(
            report.converged_at, boxed_report.converged_at,
            "{threads} threads"
        );
        assert_eq!(report.rounds_run, boxed_report.rounds_run);
    }
}

/// The resident footprint is exact: Push-Sum's 2 state lanes, doubled,
/// plus one 16 B message per agent are 48 B/agent; the plan adds 8 B
/// per agent per prefix array and 8 B per edge slot. A directed ring
/// with self-loops (2 slots/agent) holds 80 B/agent, a ring-plus-chord
/// (3 slots/agent) 88 B/agent, plus the plans' constant 16 B of
/// prefix-array overhead. Every inbox fits the stack buffer, so no
/// per-shard heap scratch is ever allocated.
#[test]
fn resident_bytes_pins_the_experiments_numbers() {
    let n = 1024;
    // Ring + self-loops: slots = 2n, so 48n buffer bytes + 32n + 16
    // plan bytes.
    let ring = generators::directed_ring(n).with_self_loops();
    let states = PushSumState::columns(&PushSumState::averaging(&values_for(n, 1)));
    let mut exec = FlatExecution::new(PushSum, &ring, states.clone());
    assert_eq!(exec.resident_bytes(), 80 * n + 16);
    // The footprint is capacity-based, so running rounds (which gathers
    // every inbox slot) changes nothing.
    exec.run(3, 2);
    assert_eq!(exec.resident_bytes(), 80 * n + 16);

    // Ring + chord v→v+2 + self-loops: slots = 3n → 48n + 40n + 16.
    let mut chord = Digraph::new(n);
    for v in 0..n {
        chord.add_edge(v, (v + 1) % n);
        chord.add_edge(v, (v + 2) % n);
    }
    let chord = chord.with_self_loops();
    let exec = FlatExecution::new(PushSum, &chord, states);
    assert_eq!(exec.resident_bytes(), 88 * n + 16);
}

/// `NullProbe` is purely an erasure: stepping with it (or through the
/// probed entry points) produces bit-identical states to the bare
/// engine, and a `CountingProbe` observes without perturbing.
#[test]
fn probed_runs_compute_the_same_bits_as_unprobed_runs() {
    let n = 19;
    let g = generators::random_strongly_connected(n, n, 23).with_self_loops();
    let states = PushSumState::columns(&PushSumState::averaging(&values_for(n, 23)));
    let rounds = 7u64;

    let mut bare = FlatExecution::new(PushSum, &g, states.clone());
    bare.run(rounds, 2);

    let mut null = FlatExecution::new(PushSum, &g, states.clone());
    null.run_probed(rounds, 2, &mut NullProbe);

    let mut counted = FlatExecution::new(PushSum, &g, states);
    counted.run_probed(rounds, 2, &mut CountingProbe::new());

    for lane in 0..2 {
        for v in 0..n {
            let want = bare.lane(lane)[v].to_bits();
            assert_eq!(null.lane(lane)[v].to_bits(), want, "NullProbe perturbed");
            assert_eq!(
                counted.lane(lane)[v].to_bits(),
                want,
                "CountingProbe perturbed"
            );
        }
    }
}
