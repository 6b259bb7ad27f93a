//! The flat executor: struct-of-arrays state, CSR routing, zero
//! per-round allocation — the million-agent hot path.
//!
//! The boxed [`Execution`](crate::Execution) allocates a
//! `Vec<Vec<A::Msg>>` of inboxes every round and re-derives the
//! canonical delivery order by sorting; that tops out around 10^3–10^4
//! agents. [`FlatExecution`] rebuilds the round loop from the ground up
//! for fixed-width f64 algorithms on **static** graphs:
//!
//! - **State** lives in [`Lanes::LANES`] parallel `Vec<f64>` columns
//!   (one entry per agent) — no boxed automata, no per-agent
//!   allocation. Each agent's state is loaded from its lanes, handed to
//!   the algorithm, and the next state stored back.
//! - **Messages** are the algorithm's own typed `Msg` values, one per
//!   **agent**: an isotropic agent sends the same message on every
//!   port (§2.2), so the send phase writes `send_buf[v]` once and
//!   never replicates it per out-edge.
//! - **Routing** is frozen at construction into a
//!   [`RoutingPlan`](kya_graph::RoutingPlan): per-destination inbox
//!   slots sorted once into the canonical ascending `(source id, port
//!   rank)` order, each naming its source agent. A round's routing is
//!   then a pure gather of `send_buf[gather[slot]]` over an agent's
//!   inbox slots into a small per-shard scratch (a stack buffer, or a
//!   `max_indegree`-message heap buffer kept by the executor when some
//!   inbox is larger), handed straight to the transition. After the
//!   first round at a given thread count the executor allocates
//!   nothing.
//! - **Parallelism** shards both the send and the gather+transition
//!   phases over contiguous agent ranges (crossbeam scope, split
//!   mutable slices — no unsafe). Every agent is statically assigned,
//!   so parallel runs are **bitwise identical** to sequential ones at
//!   any thread count.
//!
//! There is no separate flat form of an algorithm: a [`FlatAlgorithm`]
//! is any [`IsotropicAlgorithm`] with an f64 output, a [`Lanes`] state
//! and a `Copy` message, and the engine calls the very
//! [`IsotropicAlgorithm::message`] and
//! [`IsotropicAlgorithm::transition_with_outdegree`] the boxed
//! executor calls, on the inbox in the same canonical order. Flat and
//! boxed runs therefore agree bit for bit by construction (`kya check`
//! oracle `flat`, and the proptest in `tests/flat_equivalence.rs`, pin
//! this). Push-Sum and Metropolis — the paper's quantitative workhorses
//! — and their quantized variants all qualify.

use kya_graph::{Digraph, RoutingPlan};
use std::ops::Range;
use std::time::Instant;

use crate::algorithm::IsotropicAlgorithm;
use crate::config::FlatRunConfig;
use crate::execution::shard_ranges;
use crate::faults::FaultEvents;
use crate::probe::{FlatProbe, NullProbe, PhaseTimes, ShardCounters};
use crate::report::{CellReport, Trace};

/// Target number of strided samples per state lane handed to
/// [`FlatProbe::on_lane_sample`] each round. The stride is computed
/// from `n` alone, so the sample set is independent of thread count.
const LANE_SAMPLE_TARGET: usize = 64;

/// Maximum number of f64 lanes a flat state may use; bounds the
/// executor's stack scratch buffers.
pub const MAX_LANES: usize = 4;

/// Inboxes of at most this many messages are gathered into a stack
/// buffer; a larger maximum in-degree gives every shard a heap scratch
/// of `max_indegree` messages instead.
const INLINE_INBOX: usize = 32;

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
/// Metropolis tags its messages with a `usize` degree, but
/// `QuantizedMetropolis` (in `kya-algos`) carries the degree in an f64
/// message lane; a degree at or above `2^53` would silently round and
/// corrupt the weight `1/(1 + max(d_i, d_j))`. [`FlatExecution::new`]
/// enforces this bound over the whole routing plan at construction, so
/// inside a running flat algorithm `d as f64` is already exact.
pub fn exact_degree(d: usize) -> Result<f64, DegreeOverflow> {
    if d <= MAX_EXACT_DEGREE {
        Ok(d as f64)
    } else {
        Err(DegreeOverflow(d))
    }
}

/// A fixed-width state the flat engine keeps as `LANES` f64 columns.
///
/// `load` and `store` must round-trip bit for bit: the engine stores
/// every next state and loads it back the following round.
pub trait Lanes: Sized {
    /// Number of f64 lanes per state (1..=[`MAX_LANES`]).
    const LANES: usize;

    /// The state held in `lanes` (`LANES` entries).
    fn load(lanes: &[f64]) -> Self;

    /// Write the state into `lanes` (`LANES` entries).
    fn store(&self, lanes: &mut [f64]);
}

impl Lanes for f64 {
    const LANES: usize = 1;

    fn load(lanes: &[f64]) -> f64 {
        lanes[0]
    }

    fn store(&self, lanes: &mut [f64]) {
        lanes[0] = *self;
    }
}

/// Struct-of-arrays state columns for [`FlatExecution::new`]: column
/// `l` holds lane `l` of every state.
pub fn lane_columns<S: Lanes>(states: &[S]) -> Vec<Vec<f64>> {
    let mut cols = vec![Vec::with_capacity(states.len()); S::LANES];
    let mut lanes = [0.0f64; MAX_LANES];
    for s in states {
        s.store(&mut lanes[..S::LANES]);
        for (col, &x) in cols.iter_mut().zip(&lanes) {
            col.push(x);
        }
    }
    cols
}

/// An [`IsotropicAlgorithm`] the flat engine can run: f64 output, a
/// [`Lanes`] state and a `Copy` message.
///
/// The trait has no methods and one blanket impl — there is nothing to
/// write by hand. The bounds sit on the supertrait, so `A:
/// FlatAlgorithm` alone implies them.
pub trait FlatAlgorithm:
    IsotropicAlgorithm<State: Lanes + Send + Sync, Msg: Copy + Default + Send + Sync, Output = f64>
    + Sync
{
}

impl<A> FlatAlgorithm for A where
    A: IsotropicAlgorithm<
            State: Lanes + Send + Sync,
            Msg: Copy + Default + Send + Sync,
            Output = f64,
        > + Sync
{
}

/// Agent `v`'s state, loaded from the state columns.
fn load<S: Lanes>(cols: &[Vec<f64>], v: usize) -> S {
    let mut lanes = [0.0f64; MAX_LANES];
    for (l, col) in cols.iter().enumerate() {
        lanes[l] = col[v];
    }
    S::load(&lanes[..S::LANES])
}

/// f64-sized lanes of one message, for the probe's lane-write counter.
fn msg_lanes<A: FlatAlgorithm>() -> u64 {
    (std::mem::size_of::<A::Msg>() / std::mem::size_of::<f64>()) as u64
}

/// A flat execution: SoA state columns plus one message per agent,
/// gathered into inboxes through a CSR routing plan and stepped in
/// place with zero per-round allocation. See the module docs for the
/// layout and determinism contract.
pub struct FlatExecution<A: FlatAlgorithm> {
    algo: A,
    n: usize,
    round: u64,
    plan: RoutingPlan,
    cols: Vec<Vec<f64>>,
    next: Vec<Vec<f64>>,
    send_buf: Vec<A::Msg>,
    /// Per-shard inbox scratch, grown when the shard count rises; each
    /// entry holds `scratch_len` messages.
    scratch: Vec<Vec<A::Msg>>,
    /// The maximum in-degree when it exceeds [`INLINE_INBOX`], else 0
    /// (every inbox fits the stack buffer).
    scratch_len: usize,
}

impl<A: FlatAlgorithm> FlatExecution<A> {
    /// Build a flat execution of `algo` on the **static** graph `graph`
    /// from the given state columns ([`Lanes::LANES`] columns of one
    /// entry per agent; [`lane_columns`] builds them from states).
    ///
    /// # Panics
    ///
    /// Panics if the state's lane count is zero or exceeds
    /// [`MAX_LANES`], the column count or a column length mismatches, a
    /// vertex lacks a self-loop (§2.1), or a degree exceeds
    /// [`MAX_EXACT_DEGREE`] (the [`exact_degree`] precondition of
    /// degree-tagged algorithms).
    pub fn new(algo: A, graph: &Digraph, columns: Vec<Vec<f64>>) -> FlatExecution<A> {
        let lanes = <A::State as Lanes>::LANES;
        assert!((1..=MAX_LANES).contains(&lanes), "LANES out of range");
        assert_eq!(columns.len(), lanes, "one column per state lane");
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
        let max_indegree = (0..n).map(|v| plan.indegree(v)).max().unwrap_or(0);
        let scratch_len = if max_indegree > INLINE_INBOX {
            max_indegree
        } else {
            0
        };
        FlatExecution {
            algo,
            n,
            round: 0,
            plan,
            next: columns.clone(),
            cols: columns,
            send_buf: vec![A::Msg::default(); n],
            scratch: Vec::new(),
            scratch_len,
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
        (0..self.n)
            .map(|v| self.algo.output(&load(&self.cols, v)))
            .collect()
    }

    /// Resident buffer bytes — the flat engine's whole per-run
    /// footprint: state columns and their double-buffer, the per-agent
    /// send buffer, the per-shard inbox scratch (grown by the first
    /// round at a new, higher thread count, and empty while every inbox
    /// fits the stack buffer), and the routing plan's offset arrays.
    /// Measured over *capacities*, so it is what the allocator actually
    /// holds. `tests/flat_probe.rs` pins the exact figures.
    pub fn resident_bytes(&self) -> usize {
        let f = std::mem::size_of::<f64>();
        let m = std::mem::size_of::<A::Msg>();
        m * (self.send_buf.capacity() + self.scratch.iter().map(Vec::capacity).sum::<usize>())
            + f * (self.cols.iter().map(Vec::capacity).sum::<usize>()
                + self.next.iter().map(Vec::capacity).sum::<usize>())
            + self.plan.resident_bytes()
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
        if self.scratch.len() < ranges.len() {
            let fresh = vec![A::Msg::default(); self.scratch_len];
            self.scratch.resize(ranges.len(), fresh);
        }
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
            let parts = split_spans(&mut self.send_buf, &ranges);
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

        // Phase 2: gather + transition fused — each shard owns its inbox
        // scratch and the next-column spans of its contiguous
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
                    &mut self.scratch[0],
                    &mut next,
                    &ranges[0],
                )]
            } else {
                // Per-shard bundles of (scratch, one span per next column).
                let mut bundles: Vec<_> = self
                    .scratch
                    .iter_mut()
                    .take(ranges.len())
                    .map(|s| (s.as_mut_slice(), Vec::with_capacity(self.next.len())))
                    .collect();
                for col in self.next.iter_mut() {
                    let parts = split_spans(col, &ranges);
                    for (part, bundle) in parts.into_iter().zip(&mut bundles) {
                        bundle.1.push(part);
                    }
                }
                let mut counters = Vec::new();
                crossbeam::scope(|scope| {
                    let handles: Vec<_> = ranges
                        .iter()
                        .zip(bundles)
                        .map(|(r, (scratch, mut next))| {
                            scope.spawn(move |_| {
                                gather_transition_range::<A, P>(
                                    algo, plan, cols, send_buf, scratch, &mut next, r,
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
    /// the `RunConfig::measure` parity gap, so flat runs report
    /// `converged_at` instead of only fixed budgets.
    pub fn drive(&mut self, cfg: FlatRunConfig<'_>) -> CellReport {
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
            self.step_threads(threads);
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

/// Split `buf` into one mutable span `buf[r]` per range. The ranges
/// must tile `buf` in order from index 0 — which shard layouts from
/// [`shard_ranges`] guarantee.
fn split_spans<'b, T>(buf: &'b mut [T], ranges: &[Range<usize>]) -> Vec<&'b mut [T]> {
    let mut parts = Vec::with_capacity(ranges.len());
    let mut rest = buf;
    for r in ranges {
        let (head, tail) = rest.split_at_mut(r.len());
        parts.push(head);
        rest = tail;
    }
    parts
}

/// Phase 1 for one contiguous source range: compute each agent's
/// isotropic message once into its send-buffer entry. `out` is the
/// range's span of the send buffer. Returns the shard's counters — all
/// accumulation is gated on `P::ENABLED`, so the [`NullProbe`]
/// instantiation pays nothing.
fn send_range<A: FlatAlgorithm, P: FlatProbe>(
    algo: &A,
    plan: &RoutingPlan,
    cols: &[Vec<f64>],
    out: &mut [A::Msg],
    range: &Range<usize>,
) -> ShardCounters {
    let mut counters = ShardCounters::default();
    if P::ENABLED {
        counters.agents = range.len() as u64;
        counters.messages_routed = plan.send_slots_in(range.clone()) as u64;
        counters.lane_writes = counters.messages_routed * msg_lanes::<A>();
    }
    for (v, msg) in range.clone().zip(out) {
        *msg = algo.message(&load(cols, v), plan.outdegree(v));
    }
    counters
}

/// Phase 2 for one contiguous destination range: gather each agent's
/// inbox from the send buffer into `scratch` (in canonical delivery
/// order, by construction of the plan) and fold it into the next-state
/// columns. An empty `scratch` means every inbox fits the stack buffer.
/// Returns the shard's counters (see [`send_range`]).
fn gather_transition_range<A: FlatAlgorithm, P: FlatProbe>(
    algo: &A,
    plan: &RoutingPlan,
    cols: &[Vec<f64>],
    send_buf: &[A::Msg],
    scratch: &mut [A::Msg],
    next: &mut [&mut [f64]],
    range: &Range<usize>,
) -> ShardCounters {
    let lanes = <A::State as Lanes>::LANES;
    let mut counters = ShardCounters::default();
    if P::ENABLED {
        let slots = plan.inbox_slots_in(range.clone()) as u64;
        counters.agents = range.len() as u64;
        counters.messages_routed = slots;
        // Gathered lanes plus the per-agent next-state writes.
        counters.lane_writes = slots * msg_lanes::<A>() + (range.len() * lanes) as u64;
        counters.arena_bytes = slots * std::mem::size_of::<A::Msg>() as u64;
    }
    let gather = plan.gather();
    let mut inline = [A::Msg::default(); INLINE_INBOX];
    let buf = if scratch.is_empty() {
        &mut inline[..]
    } else {
        scratch
    };
    let mut out = [0.0f64; MAX_LANES];
    for v in range.clone() {
        let slots = plan.inbox_range(v);
        let inbox = &mut buf[..slots.len()];
        for (m, &src) in inbox.iter_mut().zip(&gather[slots]) {
            *m = send_buf[src];
        }
        algo.transition_with_outdegree(&load(cols, v), plan.outdegree(v), inbox)
            .store(&mut out[..lanes]);
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

    /// Order-sensitive f64 fold: sums the inbox in delivery order —
    /// any inbox reordering changes the rounding.
    #[derive(Clone)]
    struct OrderSum;
    impl IsotropicAlgorithm for OrderSum {
        type State = f64;
        type Msg = f64;
        type Output = f64;
        fn message(&self, state: &f64, _outdegree: usize) -> f64 {
            *state
        }
        fn transition(&self, _state: &f64, inbox: &[f64]) -> f64 {
            inbox.iter().fold(0.0, |acc, m| acc + m)
        }
        fn output(&self, state: &f64) -> f64 {
            *state
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
        use crate::{Execution, Isotropic};

        let g = in_star(6);
        let inits = vec![1e16, 3.0, 1e-7, 2.0, 1e7, 1.0];
        let mut boxed = Execution::new(Isotropic(OrderSum), inits.clone());
        let mut flat = FlatExecution::new(OrderSum, &g, vec![inits]);
        for _ in 0..4 {
            boxed.step(&g);
            flat.step_threads(3);
            for (a, b) in boxed.states().iter().zip(flat.lane(0)) {
                assert_eq!(a.to_bits(), b.to_bits(), "flat diverged from boxed");
            }
        }
    }

    /// Push-Sum-style shares folded in delivery order, reading both
    /// outdegrees: any change to the inbox order, to a parallel edge's
    /// multiplicity or to either outdegree moves the bits.
    #[derive(Clone)]
    struct ShareSum;
    impl IsotropicAlgorithm for ShareSum {
        type State = f64;
        type Msg = (f64, usize);
        type Output = f64;
        fn message(&self, state: &f64, outdegree: usize) -> (f64, usize) {
            (*state / outdegree as f64, outdegree)
        }
        fn transition(&self, state: &f64, inbox: &[(f64, usize)]) -> f64 {
            self.transition_with_outdegree(state, 0, inbox)
        }
        fn transition_with_outdegree(
            &self,
            _state: &f64,
            outdegree: usize,
            inbox: &[(f64, usize)],
        ) -> f64 {
            inbox
                .iter()
                .fold(outdegree as f64 * 1e-9, |acc, &(share, d)| {
                    acc + share + d as f64 * 1e-12
                })
        }
        fn output(&self, state: &f64) -> f64 {
            *state
        }
    }

    #[test]
    fn edge_shapes_match_boxed_at_every_thread_count() {
        use crate::{Execution, Isotropic};

        // Parallel edges of multiplicity 2 and 3, and a doubled self-loop.
        let mut multi = Digraph::new(5);
        for v in 0..5 {
            multi.add_edge(v, (v + 1) % 5);
            multi.add_edge(v, (v + 1) % 5);
            multi.add_edge(v, (v + 2) % 5);
        }
        multi.add_edge(3, 3);
        multi.add_edge(3, 3);
        let mut pair = Digraph::new(2);
        pair.add_edge(0, 1);
        pair.add_edge(1, 0);
        // The hub's inbox (64 messages) overflows the stack buffer; n = 1
        // and n = 2 leave fewer shards than threads.
        let shapes = [
            in_star(64),
            multi.with_self_loops(),
            Digraph::new(1).with_self_loops(),
            pair.with_self_loops(),
        ];
        let msg = std::mem::size_of::<(f64, usize)>();
        for g in &shapes {
            let n = g.n();
            let inits: Vec<f64> = (0..n).map(|v| [1e16, 3.0, 1e-7, 2.0, 1e7][v % 5]).collect();
            let mut boxed = Execution::new(Isotropic(ShareSum), inits.clone());
            let mut flats: Vec<(usize, FlatExecution<ShareSum>)> = [1, 2, 3, 4, 8]
                .into_iter()
                .map(|t| (t, FlatExecution::new(ShareSum, g, vec![inits.clone()])))
                .collect();
            let max_in = (0..n).map(|v| g.indegree(v)).max().unwrap();
            let heap = if max_in > INLINE_INBOX { max_in } else { 0 };
            let fresh = flats[0].1.resident_bytes();
            for round in 1..=6 {
                boxed.step(g);
                let want: Vec<u64> = boxed.states().iter().map(|x| x.to_bits()).collect();
                for (t, flat) in &mut flats {
                    flat.step_threads(*t);
                    let got: Vec<u64> = flat.lane(0).iter().map(|x| x.to_bits()).collect();
                    assert_eq!(got, want, "n = {n}, {t} threads, round {round}");
                    // One heap scratch per shard, only for oversized
                    // inboxes, allocated by the first round and kept.
                    assert_eq!(
                        flat.resident_bytes(),
                        fresh + (*t).min(n) * heap * msg,
                        "n = {n}, {t} threads, round {round}"
                    );
                }
            }
            // Fewer shards reuse the scratch already held.
            let (_, widest) = flats.last_mut().unwrap();
            let held = widest.resident_bytes();
            widest.step_threads(2);
            assert_eq!(widest.resident_bytes(), held);
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
