//! The flat executor: struct-of-arrays state, CSR routing, zero
//! per-round allocation — the million-agent hot path.
//!
//! The boxed [`Execution`](crate::Execution) allocates a
//! `Vec<Vec<A::Msg>>` of inboxes every round and re-derives the
//! canonical delivery order by sorting; that tops out around 10^3–10^4
//! agents. [`FlatExecution`] rebuilds the round loop from the ground up
//! for f64 algorithms on **static** graphs:
//!
//! - **State** lives in `STATE_LANES` parallel `Vec<f64>` columns (one
//!   entry per agent) — no boxed automata, no per-agent allocation.
//! - **Routing** is frozen at construction into a
//!   [`RoutingPlan`](kya_graph::RoutingPlan): per-edge send slots in
//!   port-rank order plus per-destination inbox offsets sorted once
//!   into the canonical ascending `(source id, port rank)` order. A
//!   round's routing is then a pure gather,
//!   `arena[slot] = send_buf[gather[slot]]`.
//! - **Messages** are written into a single reusable flat arena indexed
//!   by those offsets; after the first round the executor allocates
//!   nothing.
//! - **Parallelism** shards both the send and the gather+transition
//!   phases over contiguous agent ranges (crossbeam scope, split
//!   mutable slices — no unsafe). Every slot is statically assigned,
//!   so parallel runs are **bitwise identical** to sequential ones at
//!   any thread count (`kya check` oracle `flat`, and the proptest in
//!   `tests/flat_equivalence.rs`, pin this against the boxed path).
//!
//! The price is genericity: a [`FlatAlgorithm`] is isotropic (one
//! message per round, replicated to every port) with fixed-width f64
//! state and message vectors. Push-Sum and Metropolis — the paper's
//! quantitative workhorses — fit exactly; `kya-algos` implements both.

use kya_graph::{Digraph, RoutingPlan};
use std::ops::Range;
use std::time::Instant;

use crate::config::FlatRunConfig;
use crate::execution::shard_ranges;
use crate::faults::FaultEvents;
use crate::probe::{FlatProbe, NullProbe, PhaseTimes, ShardCounters};
use crate::report::{CellReport, Trace};

/// Target number of strided samples per state lane handed to
/// [`FlatProbe::on_lane_sample`] each round. The stride is computed
/// from `n` alone, so the sample set is independent of thread count.
const LANE_SAMPLE_TARGET: usize = 64;

/// Maximum number of f64 lanes a flat state or message may use; bounds
/// the executor's stack scratch buffers.
pub const MAX_LANES: usize = 4;

/// Largest structural degree a flat algorithm may carry in an f64 lane
/// without rounding: every integer up to `2^53 - 1` is exactly
/// representable, `2^53 + 1` is not.
pub const MAX_EXACT_DEGREE: usize = (1 << 53) - 1;

/// A structural degree too large to represent exactly as an f64 lane
/// value (see [`exact_degree`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DegreeOverflow(pub usize);

impl std::fmt::Display for DegreeOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "degree {} exceeds 2^53 - 1 and is not exactly representable as f64",
            self.0
        )
    }
}

impl std::error::Error for DegreeOverflow {}

/// Convert a structural degree to its exact f64 representation, or fail
/// when the integer would round.
///
/// Flat algorithms that tag messages with degrees (Metropolis) store
/// them in f64 lanes; a degree at or above `2^53` would silently round
/// and corrupt the weight `1/(1 + max(d_i, d_j))`. [`FlatExecution::new`]
/// enforces this bound over the whole routing plan at construction, so
/// inside a running flat algorithm `d as f64` is already exact.
pub fn exact_degree(d: usize) -> Result<f64, DegreeOverflow> {
    if d <= MAX_EXACT_DEGREE {
        Ok(d as f64)
    } else {
        Err(DegreeOverflow(d))
    }
}

/// An isotropic f64 algorithm in struct-of-arrays form, runnable by
/// [`FlatExecution`].
///
/// Semantics mirror [`IsotropicAlgorithm`](crate::IsotropicAlgorithm):
/// one message per round computed from the state and the outdegree,
/// replicated to every output port; the transition folds the inbox —
/// delivered in the canonical `(source id, port rank)` order — into the
/// next state. To stay bitwise identical to a boxed twin, perform the
/// same floating-point operations in the same order (the inbox arrives
/// as `MSG_LANES`-sized chunks in exactly the boxed delivery order).
pub trait FlatAlgorithm: Sync {
    /// Number of f64 lanes per agent state (1..=[`MAX_LANES`]).
    const STATE_LANES: usize;
    /// Number of f64 lanes per message (1..=[`MAX_LANES`]).
    const MSG_LANES: usize;

    /// Compute the round's message from `state` (`STATE_LANES` lanes)
    /// into `msg` (`MSG_LANES` lanes), given the sender's outdegree.
    fn message(&self, state: &[f64], outdegree: usize, msg: &mut [f64]);

    /// Fold `inbox` (`indegree × MSG_LANES` lanes, canonical delivery
    /// order) into `next` (`STATE_LANES` lanes).
    fn transition(&self, state: &[f64], inbox: &[f64], next: &mut [f64]);

    /// [`FlatAlgorithm::transition`], additionally told the agent's own
    /// outdegree — the flat spelling of
    /// [`Algorithm::transition_with_outdegree`](crate::Algorithm::transition_with_outdegree).
    /// The executor always calls this variant with the routing plan's
    /// outdegree; the default ignores it, so plain flat algorithms are
    /// unaffected while quantized residual-carry algorithms override.
    fn transition_with_outdegree(
        &self,
        state: &[f64],
        outdegree: usize,
        inbox: &[f64],
        next: &mut [f64],
    ) {
        let _ = outdegree;
        self.transition(state, inbox, next);
    }

    /// Project an agent's output from its state lanes.
    fn output(&self, state: &[f64]) -> f64;
}

/// A flat execution: SoA state columns plus one CSR-routed message
/// arena, stepped in place with zero per-round allocation. See the
/// module docs for the layout and determinism contract.
pub struct FlatExecution<A: FlatAlgorithm> {
    algo: A,
    n: usize,
    round: u64,
    plan: RoutingPlan,
    cols: Vec<Vec<f64>>,
    next: Vec<Vec<f64>>,
    send_buf: Vec<f64>,
    arena: Vec<f64>,
}

impl<A: FlatAlgorithm> FlatExecution<A> {
    /// Build a flat execution of `algo` on the **static** graph `graph`
    /// from the given state columns (`STATE_LANES` columns of one entry
    /// per agent).
    ///
    /// # Panics
    ///
    /// Panics if the column count or a column length mismatches, a lane
    /// count is zero or exceeds [`MAX_LANES`], a vertex lacks a
    /// self-loop (§2.1), or a degree exceeds [`MAX_EXACT_DEGREE`] (the
    /// [`exact_degree`] precondition of degree-tagged algorithms).
    pub fn new(algo: A, graph: &Digraph, columns: Vec<Vec<f64>>) -> FlatExecution<A> {
        assert!(
            (1..=MAX_LANES).contains(&A::STATE_LANES),
            "STATE_LANES out of range"
        );
        assert!(
            (1..=MAX_LANES).contains(&A::MSG_LANES),
            "MSG_LANES out of range"
        );
        assert_eq!(columns.len(), A::STATE_LANES, "one column per state lane");
        let n = graph.n();
        for col in &columns {
            assert_eq!(col.len(), n, "column length != agent count");
        }
        for v in 0..n {
            assert!(graph.has_self_loop(v), "vertex {v} lacks a self-loop");
        }
        let plan = RoutingPlan::new(graph);
        for v in 0..n {
            if let Err(e) = exact_degree(plan.outdegree(v).max(plan.indegree(v))) {
                panic!("vertex {v}: {e}");
            }
        }
        let slots = plan.slots();
        FlatExecution {
            algo,
            n,
            round: 0,
            plan,
            next: columns.clone(),
            cols: columns,
            send_buf: vec![0.0; slots * A::MSG_LANES],
            arena: vec![0.0; slots * A::MSG_LANES],
        }
    }

    /// Number of agents.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The algorithm being executed.
    pub fn algorithm(&self) -> &A {
        &self.algo
    }

    /// The routing plan the executor runs on.
    pub fn plan(&self) -> &RoutingPlan {
        &self.plan
    }

    /// State lane `lane`, indexed by agent.
    pub fn lane(&self, lane: usize) -> &[f64] {
        &self.cols[lane]
    }

    /// Agent `v`'s state lanes, gathered into a small buffer.
    pub fn state_of(&self, v: usize) -> Vec<f64> {
        self.cols.iter().map(|col| col[v]).collect()
    }

    /// Current outputs, indexed by agent.
    pub fn outputs(&self) -> Vec<f64> {
        let mut state = [0.0f64; MAX_LANES];
        (0..self.n)
            .map(|v| {
                for (l, col) in self.cols.iter().enumerate() {
                    state[l] = col[v];
                }
                self.algo.output(&state[..A::STATE_LANES])
            })
            .collect()
    }

    /// Resident buffer bytes — the flat engine's whole per-run
    /// footprint after warm-up: state columns and their double-buffer,
    /// the send buffer, the full message arena (its high-water mark:
    /// every inbox slot is re-gathered each round), and the routing
    /// plan's offset arrays. Measured over *capacities*, so it is what
    /// the allocator actually holds. `tests/flat_probe.rs` pins this
    /// against the 128–168 B/agent figures in EXPERIMENTS.md.
    pub fn resident_bytes(&self) -> usize {
        let f = std::mem::size_of::<f64>();
        f * (self.send_buf.capacity()
            + self.arena.capacity()
            + self.cols.iter().map(Vec::capacity).sum::<usize>()
            + self.next.iter().map(Vec::capacity).sum::<usize>())
            + self.plan.resident_bytes()
    }

    /// High-water mark of message-arena bytes touched by any executed
    /// round — zero before the first round, then the full arena (every
    /// inbox slot is re-gathered each round).
    pub fn arena_high_water(&self) -> usize {
        if self.round == 0 {
            0
        } else {
            std::mem::size_of::<f64>() * self.arena.len()
        }
    }

    /// Execute one round sequentially.
    pub fn step(&mut self) {
        self.step_threads(1);
    }

    /// Execute one round with both phases sharded across `threads`
    /// contiguous agent ranges. Bitwise identical to [`FlatExecution::step`]
    /// at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn step_threads(&mut self, threads: usize) {
        self.step_probed(threads, &mut NullProbe);
    }

    /// Execute one round under a [`FlatProbe`]: per-shard counters are
    /// merged and delivered in ascending shard order after the joins,
    /// state lanes are sampled at a thread-independent stride, and the
    /// wall-clock phase breakdown arrives through the separate
    /// [`FlatProbe::on_phase_times`] hook. With [`NullProbe`] (whose
    /// `ENABLED` is `false`) every probe branch const-folds away and
    /// this *is* [`FlatExecution::step_threads`].
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn step_probed<P: FlatProbe>(&mut self, threads: usize, probe: &mut P) {
        assert!(threads > 0, "at least one worker thread");
        let round = self.round + 1;
        if P::ENABLED {
            probe.on_round_start(round, self.n);
        }
        let mut times = PhaseTimes::default();
        let mut mark = if P::ENABLED {
            Some(Instant::now())
        } else {
            None
        };

        let ranges = shard_ranges(self.n, threads);
        let ml = A::MSG_LANES;
        let algo = &self.algo;
        let plan = &self.plan;
        let cols = &self.cols;
        lap(&mut mark, &mut times.route_us);

        // Phase 1: sends — each shard owns the send-buffer span of its
        // contiguous source range. Join order is shard order, so the
        // counters come back canonically regardless of scheduling.
        let send_counters: Vec<ShardCounters> = if ranges.len() == 1 {
            vec![send_range::<A, P>(
                algo,
                plan,
                cols,
                &mut self.send_buf,
                &ranges[0],
            )]
        } else {
            let parts = split_spans(&mut self.send_buf, &ranges, |v| plan.send_start(v) * ml);
            let mut counters = Vec::new();
            crossbeam::scope(|scope| {
                let handles: Vec<_> = ranges
                    .iter()
                    .zip(parts)
                    .map(|(r, part)| {
                        scope.spawn(move |_| send_range::<A, P>(algo, plan, cols, part, r))
                    })
                    .collect();
                counters = handles
                    .into_iter()
                    .map(|h| h.join().expect("flat send worker panicked"))
                    .collect();
            })
            .expect("crossbeam scope");
            counters
        };
        lap(&mut mark, &mut times.send_us);

        // Phase 2: gather + transition fused — each shard owns the
        // arena span and next-column spans of its contiguous
        // destination range, and reads the whole send buffer.
        let gather_counters: Vec<ShardCounters> = {
            let send_buf = &self.send_buf;
            if ranges.len() == 1 {
                let mut next: Vec<&mut [f64]> =
                    self.next.iter_mut().map(Vec::as_mut_slice).collect();
                vec![gather_transition_range::<A, P>(
                    algo,
                    plan,
                    cols,
                    send_buf,
                    &mut self.arena,
                    &mut next,
                    &ranges[0],
                )]
            } else {
                let arena_parts =
                    split_spans(&mut self.arena, &ranges, |v| plan.inbox_start(v) * ml);
                // Per-shard bundles of (arena span, one span per next column).
                let mut bundles: Vec<(&mut [f64], Vec<&mut [f64]>)> = arena_parts
                    .into_iter()
                    .map(|a| (a, Vec::with_capacity(A::STATE_LANES)))
                    .collect();
                for col in self.next.iter_mut() {
                    for (part, bundle) in split_spans(col, &ranges, |v| v)
                        .into_iter()
                        .zip(&mut bundles)
                    {
                        bundle.1.push(part);
                    }
                }
                let mut counters = Vec::new();
                crossbeam::scope(|scope| {
                    let handles: Vec<_> = ranges
                        .iter()
                        .zip(bundles)
                        .map(|(r, (arena, mut next))| {
                            scope.spawn(move |_| {
                                gather_transition_range::<A, P>(
                                    algo, plan, cols, send_buf, arena, &mut next, r,
                                )
                            })
                        })
                        .collect();
                    counters = handles
                        .into_iter()
                        .map(|h| h.join().expect("flat transition worker panicked"))
                        .collect();
                })
                .expect("crossbeam scope");
                counters
            }
        };
        lap(&mut mark, &mut times.transition_us);

        std::mem::swap(&mut self.cols, &mut self.next);
        self.round += 1;

        if P::ENABLED {
            for (i, c) in send_counters.iter().enumerate() {
                probe.on_send_shard(i, c);
            }
            for (i, c) in gather_counters.iter().enumerate() {
                probe.on_gather_shard(i, c);
            }
            let mut send_total = ShardCounters::default();
            for c in &send_counters {
                send_total.merge(c);
            }
            let mut gather_total = ShardCounters::default();
            for c in &gather_counters {
                gather_total.merge(c);
            }
            // Strided lane sampling over the post-round state; the
            // stride depends on n only, never on the thread count.
            let stride = (self.n / LANE_SAMPLE_TARGET).max(1);
            let mut samples = Vec::with_capacity(self.n.div_ceil(stride));
            for (lane, col) in self.cols.iter().enumerate() {
                samples.clear();
                samples.extend(col.iter().step_by(stride).copied());
                probe.on_lane_sample(round, lane, &samples);
            }
            probe.on_round_end(round, &send_total, &gather_total);
            lap(&mut mark, &mut times.merge_us);
            probe.on_phase_times(round, &times);
        }
    }

    /// Execute `rounds` rounds at the given thread count.
    pub fn run(&mut self, rounds: u64, threads: usize) {
        for _ in 0..rounds {
            self.step_threads(threads);
        }
    }

    /// Execute `rounds` rounds under a [`FlatProbe`].
    pub fn run_probed<P: FlatProbe>(&mut self, rounds: u64, threads: usize, probe: &mut P) {
        for _ in 0..rounds {
            self.step_probed(threads, probe);
        }
    }

    /// Drive the execution under a [`FlatRunConfig`] — the flat twin of
    /// [`Execution::drive`](crate::Execution::drive): a round budget
    /// plus optional residual measurement, ε-convergence judged post
    /// hoc over the whole trace, and confirmed early stopping. Closes
    /// the `RunConfig::measure` parity gap, so flat sweeps report
    /// `converged_at` instead of only fixed budgets.
    pub fn drive(&mut self, cfg: FlatRunConfig<'_>) -> CellReport {
        self.drive_probed(cfg, &mut NullProbe)
    }

    /// [`FlatExecution::drive`] with a [`FlatProbe`] attached to every
    /// executed round.
    pub fn drive_probed<P: FlatProbe>(
        &mut self,
        cfg: FlatRunConfig<'_>,
        probe: &mut P,
    ) -> CellReport {
        let FlatRunConfig {
            rounds,
            threads,
            dist,
            eps,
            confirm,
            bandwidth,
        } = cfg;
        let mut trace = Trace::new(self.round, dist, eps, confirm);
        for _ in 0..rounds {
            if let Some((cap, ledger)) = bandwidth {
                // One send slot per edge: the same per-round charge as
                // the boxed drive's `edge_count()`.
                ledger.charge_round(self.plan.slots() as u64, cap.bits_per_edge());
            }
            self.step_probed(threads, probe);
            if trace.record(self.round, || self.outputs()) {
                break;
            }
        }
        trace.seal(0, FaultEvents::default(), None)
    }
}

/// Advance the phase timer: charge the elapsed time since the last lap
/// to `slot` and restart. A `None` mark (probe disabled) is free.
fn lap(mark: &mut Option<Instant>, slot: &mut u64) {
    if let Some(t) = mark {
        *slot = t.elapsed().as_micros() as u64;
        *mark = Some(Instant::now());
    }
}

/// Split `buf` into one mutable span per range, where range `r` owns
/// `buf[offset(r.start)..offset(r.end)]`. `offset` must be monotone
/// with `offset(0) == 0` and `offset(n)` == `buf.len()` over the
/// ranges' union — which shard layouts from [`shard_ranges`] guarantee.
fn split_spans<'b>(
    buf: &'b mut [f64],
    ranges: &[Range<usize>],
    offset: impl Fn(usize) -> usize,
) -> Vec<&'b mut [f64]> {
    let mut parts = Vec::with_capacity(ranges.len());
    let mut rest = buf;
    let mut consumed = 0;
    for r in ranges {
        let end = offset(r.end);
        let (head, tail) = rest.split_at_mut(end - consumed);
        parts.push(head);
        rest = tail;
        consumed = end;
    }
    parts
}

/// Phase 1 for one contiguous source range: compute each agent's
/// isotropic message once and replicate it into the agent's send slots
/// (one per out-edge, rank order). `out` is the range's span of the
/// send buffer. Returns the shard's counters — all accumulation is
/// gated on `P::ENABLED`, so the [`NullProbe`] instantiation pays
/// nothing.
fn send_range<A: FlatAlgorithm, P: FlatProbe>(
    algo: &A,
    plan: &RoutingPlan,
    cols: &[Vec<f64>],
    out: &mut [f64],
    range: &Range<usize>,
) -> ShardCounters {
    let ml = A::MSG_LANES;
    let base = plan.send_start(range.start);
    let mut state = [0.0f64; MAX_LANES];
    let mut msg = [0.0f64; MAX_LANES];
    let mut counters = ShardCounters::default();
    if P::ENABLED {
        counters.agents = range.len() as u64;
        counters.messages_routed = plan.send_slots_in(range.clone()) as u64;
        counters.lane_writes = counters.messages_routed * ml as u64;
    }
    for v in range.clone() {
        let slots = plan.send_range(v);
        let outdeg = slots.len();
        if outdeg == 0 {
            continue;
        }
        for (l, col) in cols.iter().enumerate() {
            state[l] = col[v];
        }
        algo.message(&state[..A::STATE_LANES], outdeg, &mut msg[..ml]);
        let first = (slots.start - base) * ml;
        for chunk in out[first..first + outdeg * ml].chunks_exact_mut(ml) {
            chunk.copy_from_slice(&msg[..ml]);
        }
    }
    counters
}

/// Phase 2 for one contiguous destination range: gather each agent's
/// inbox from the send buffer into the arena span (already in canonical
/// delivery order, by construction of the plan) and fold it into the
/// next-state columns. Returns the shard's counters (see
/// [`send_range`]).
fn gather_transition_range<A: FlatAlgorithm, P: FlatProbe>(
    algo: &A,
    plan: &RoutingPlan,
    cols: &[Vec<f64>],
    send_buf: &[f64],
    arena: &mut [f64],
    next: &mut [&mut [f64]],
    range: &Range<usize>,
) -> ShardCounters {
    let ml = A::MSG_LANES;
    let mut counters = ShardCounters::default();
    if P::ENABLED {
        let slots = plan.inbox_slots_in(range.clone()) as u64;
        counters.agents = range.len() as u64;
        counters.messages_routed = slots;
        // Gathered lanes plus the per-agent next-state writes.
        counters.lane_writes = slots * ml as u64 + (range.len() * A::STATE_LANES) as u64;
        counters.arena_bytes = slots * (ml * std::mem::size_of::<f64>()) as u64;
    }
    let base = plan.inbox_start(range.start);
    let gather = plan.gather();
    let mut state = [0.0f64; MAX_LANES];
    let mut out = [0.0f64; MAX_LANES];
    for v in range.clone() {
        let slots = plan.inbox_range(v);
        let local = (slots.start - base) * ml..(slots.end - base) * ml;
        {
            let inbox = &mut arena[local.clone()];
            for (&slot, chunk) in gather[slots.clone()].iter().zip(inbox.chunks_exact_mut(ml)) {
                chunk.copy_from_slice(&send_buf[slot * ml..(slot + 1) * ml]);
            }
        }
        for (l, col) in cols.iter().enumerate() {
            state[l] = col[v];
        }
        algo.transition_with_outdegree(
            &state[..A::STATE_LANES],
            plan.outdegree(v),
            &arena[local],
            &mut out[..A::STATE_LANES],
        );
        for (l, col) in next.iter_mut().enumerate() {
            col[v - range.start] = out[l];
        }
    }
    counters
}

#[cfg(test)]
mod tests {
    use super::*;
    use kya_graph::generators;

    /// Order-sensitive f64 fold: sums the first message lane in
    /// delivery order — any inbox reordering changes the rounding.
    struct OrderSum;
    impl FlatAlgorithm for OrderSum {
        const STATE_LANES: usize = 1;
        const MSG_LANES: usize = 1;
        fn message(&self, state: &[f64], _outdegree: usize, msg: &mut [f64]) {
            msg[0] = state[0];
        }
        fn transition(&self, _state: &[f64], inbox: &[f64], next: &mut [f64]) {
            next[0] = inbox.iter().fold(0.0, |acc, m| acc + m);
        }
        fn output(&self, state: &[f64]) -> f64 {
            state[0]
        }
    }

    fn in_star(n: usize) -> Digraph {
        // Sources inserted in descending order: the canonical delivery
        // order is the reverse of the in-edge lists.
        let mut g = Digraph::new(n);
        for src in (1..n).rev() {
            g.add_edge(src, 0);
        }
        g.with_self_loops()
    }

    #[test]
    fn parallel_is_bitwise_identical_to_sequential() {
        let g = in_star(6);
        let inits = vec![1e16, 3.0, 1e-7, 2.0, 1e7, 1.0];
        let mut seq = FlatExecution::new(OrderSum, &g, vec![inits.clone()]);
        let mut two = FlatExecution::new(OrderSum, &g, vec![inits.clone()]);
        let mut four = FlatExecution::new(OrderSum, &g, vec![inits]);
        for _ in 0..4 {
            seq.step();
            two.step_threads(2);
            four.step_threads(4);
            for v in 0..6 {
                assert_eq!(seq.lane(0)[v].to_bits(), two.lane(0)[v].to_bits());
                assert_eq!(seq.lane(0)[v].to_bits(), four.lane(0)[v].to_bits());
            }
        }
        assert_eq!(seq.round(), 4);
    }

    #[test]
    fn matches_boxed_executor_on_order_sensitive_sums() {
        use crate::algorithm::{Broadcast, BroadcastAlgorithm};
        use crate::Execution;

        #[derive(Clone)]
        struct BoxedOrderSum;
        impl BroadcastAlgorithm for BoxedOrderSum {
            type State = f64;
            type Msg = f64;
            type Output = f64;
            fn message(&self, s: &f64) -> f64 {
                *s
            }
            fn transition(&self, _: &f64, inbox: &[f64]) -> f64 {
                inbox.iter().fold(0.0, |acc, m| acc + m)
            }
            fn output(&self, s: &f64) -> f64 {
                *s
            }
        }

        let g = in_star(6);
        let inits = vec![1e16, 3.0, 1e-7, 2.0, 1e7, 1.0];
        let mut boxed = Execution::new(Broadcast(BoxedOrderSum), inits.clone());
        let mut flat = FlatExecution::new(OrderSum, &g, vec![inits]);
        for _ in 0..4 {
            boxed.step(&g);
            flat.step_threads(3);
            for (a, b) in boxed.states().iter().zip(flat.lane(0)) {
                assert_eq!(a.to_bits(), b.to_bits(), "flat diverged from boxed");
            }
        }
    }

    #[test]
    fn zero_allocation_after_warmup_costs_nothing_per_round() {
        // Behavioural proxy: the resident footprint is invariant across
        // rounds (the buffers are reused, never regrown).
        let g = generators::directed_ring(32).with_self_loops();
        let mut exec = FlatExecution::new(OrderSum, &g, vec![vec![1.0; 32]]);
        let before = exec.resident_bytes();
        exec.run(10, 2);
        assert_eq!(exec.resident_bytes(), before);
        assert_eq!(exec.round(), 10);
    }

    #[test]
    #[should_panic(expected = "lacks a self-loop")]
    fn missing_self_loop_rejected() {
        let g = generators::directed_ring(3);
        let _ = FlatExecution::new(OrderSum, &g, vec![vec![0.0; 3]]);
    }

    #[test]
    #[should_panic(expected = "column length")]
    fn column_arity_checked() {
        let g = generators::directed_ring(3).with_self_loops();
        let _ = FlatExecution::new(OrderSum, &g, vec![vec![0.0; 2]]);
    }

    #[test]
    fn exact_degree_boundary() {
        // Every degree up to 2^53 - 1 converts exactly...
        assert_eq!(exact_degree(0), Ok(0.0));
        assert_eq!(exact_degree(MAX_EXACT_DEGREE), Ok(9007199254740991.0));
        assert_eq!(
            exact_degree(MAX_EXACT_DEGREE).unwrap() as usize,
            MAX_EXACT_DEGREE
        );
        // ...and the first inexact integers are rejected rather than
        // silently rounded (2^53 itself converts exactly, but 2^53 + 1
        // would collapse onto it — the bound excludes the whole plateau).
        assert_eq!(
            exact_degree(MAX_EXACT_DEGREE + 1),
            Err(DegreeOverflow(1 << 53))
        );
        assert_eq!(
            exact_degree(MAX_EXACT_DEGREE + 2),
            Err(DegreeOverflow((1 << 53) + 1))
        );
        assert!(exact_degree(usize::MAX).is_err());
        let msg = DegreeOverflow(1 << 53).to_string();
        assert!(msg.contains("2^53"), "unhelpful error: {msg}");
    }
}
