//! The round-by-round executor.

use crate::algorithm::Algorithm;
use crate::churn::{Membership, ReinjectPolicy};
use crate::config::RunConfig;
use crate::faults::{Fate, FaultEvents, FaultPlan};
use crate::metric::Metric;
use crate::report::{CellReport, Trace};
use crate::telemetry::{NullObserver, Observer};
use kya_graph::{Digraph, DynamicGraph};
use std::ops::Range;

/// Split `0..n` into at most `threads` contiguous, gap-free ranges of
/// near-equal length — the sharding layout every parallel phase uses.
/// Shards concatenate back in range order, so no post-sort is needed.
pub(crate) fn shard_ranges(n: usize, threads: usize) -> Vec<Range<usize>> {
    let shards = threads.min(n).max(1);
    (0..shards)
        .map(|t| (t * n / shards)..((t + 1) * n / shards))
        .collect()
}

/// Run `f` over each range on its own crossbeam worker and concatenate
/// the per-range outputs in range order. With a single range, runs on
/// the calling thread — same values either way, since every shard's
/// output depends only on its own range.
pub(crate) fn run_sharded<T, F>(ranges: &[Range<usize>], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&Range<usize>) -> Vec<T> + Sync,
{
    if ranges.len() == 1 {
        return f(&ranges[0]);
    }
    let mut out = Vec::new();
    crossbeam::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = ranges.iter().map(|r| scope.spawn(move |_| f(r))).collect();
        for h in handles {
            out.extend(h.join().expect("shard worker panicked"));
        }
    })
    .expect("crossbeam scope");
    out
}

/// Where a round's per-agent phases — sends and transitions — run: on
/// the calling thread ([`Local`]) or sharded over contiguous agent
/// ranges ([`Sharded`]). Both compute the same values in agent order;
/// only [`Sharded`] needs `Send`/`Sync`, which keeps
/// [`Execution::step`] open to every algorithm.
trait Phases<A: Algorithm> {
    /// Every agent's port messages, in agent order.
    fn sends<'s>(
        &self,
        input: &'s RoundInput<'_, A>,
        states: &'s [A::State],
    ) -> impl Iterator<Item = Vec<A::Msg>> + 's;

    /// Advance `states` past the round.
    fn transitions(
        &self,
        input: &RoundInput<'_, A>,
        routed: &Routed<A>,
        states: &mut Vec<A::State>,
    );
}

/// Per-agent phases on the calling thread: sends are routed as they
/// are computed, and transitions replace states in place.
struct Local;

/// Per-agent phases sharded over this many workers ([`shard_ranges`]).
struct Sharded(usize);

/// What every agent's send and transition read besides the states: the
/// round, the algorithm, the graph, and the crashed agents (`frozen` is
/// empty when no crash window applies, so a fault-free round allocates
/// nothing for it).
struct RoundInput<'r, A: Algorithm> {
    round: u64,
    algo: &'r A,
    graph: &'r Digraph,
    frozen: Vec<bool>,
}

/// The route's output: one inbox per agent, plus the messages bounced
/// back to each sender (empty unless a fault plan is attached).
struct Routed<A: Algorithm> {
    inboxes: Vec<Vec<A::Msg>>,
    bounced: Vec<Vec<A::Msg>>,
}

impl<A: Algorithm> RoundInput<'_, A> {
    fn is_frozen(&self, v: usize) -> bool {
        self.frozen.get(v).copied().unwrap_or(false)
    }

    /// Agent `v`'s port messages; a crashed agent sends nothing.
    fn send(&self, states: &[A::State], v: usize) -> Vec<A::Msg> {
        if self.is_frozen(v) {
            return Vec::new();
        }
        let outdeg = self.graph.outdegree(v);
        let msgs = self.algo.send(&states[v], outdeg);
        assert_eq!(
            msgs.len(),
            outdeg,
            "round {}: wrong message count from agent {v}: \
             algorithm produced {} messages for outdegree {outdeg}",
            self.round,
            msgs.len()
        );
        msgs
    }

    /// Agent `v`'s next state: the transition on its inbox, then
    /// [`Algorithm::reabsorb`] of its bounced messages. Not called for
    /// a crashed agent, whose state stays frozen.
    fn transition(&self, state: &A::State, v: usize, routed: &Routed<A>) -> A::State {
        let outdeg = self.graph.outdegree(v);
        let next = self
            .algo
            .transition_with_outdegree(state, outdeg, &routed.inboxes[v]);
        match routed.bounced.get(v) {
            Some(lost) if !lost.is_empty() => self.algo.reabsorb(&next, lost),
            _ => next,
        }
    }
}

impl<A: Algorithm> Phases<A> for Local {
    fn sends<'s>(
        &self,
        input: &'s RoundInput<'_, A>,
        states: &'s [A::State],
    ) -> impl Iterator<Item = Vec<A::Msg>> + 's {
        (0..states.len()).map(move |v| input.send(states, v))
    }

    fn transitions(
        &self,
        input: &RoundInput<'_, A>,
        routed: &Routed<A>,
        states: &mut Vec<A::State>,
    ) {
        for (v, state) in states.iter_mut().enumerate() {
            if !input.is_frozen(v) {
                *state = input.transition(state, v, routed);
            }
        }
    }
}

impl<A> Phases<A> for Sharded
where
    A: Algorithm + Sync,
    A::State: Send + Sync,
    A::Msg: Send + Sync,
{
    fn sends<'s>(
        &self,
        input: &'s RoundInput<'_, A>,
        states: &'s [A::State],
    ) -> impl Iterator<Item = Vec<A::Msg>> + 's {
        let ranges = shard_ranges(states.len(), self.0);
        run_sharded(&ranges, |r| {
            r.clone().map(|v| input.send(states, v)).collect()
        })
        .into_iter()
    }

    fn transitions(
        &self,
        input: &RoundInput<'_, A>,
        routed: &Routed<A>,
        states: &mut Vec<A::State>,
    ) {
        let current = &*states;
        let ranges = shard_ranges(current.len(), self.0);
        let next = run_sharded(&ranges, |r| {
            r.clone()
                .map(|v| {
                    if input.is_frozen(v) {
                        current[v].clone()
                    } else {
                        input.transition(&current[v], v, routed)
                    }
                })
                .collect()
        });
        *states = next;
    }
}

/// An execution of an [`Algorithm`] on a network: the sequence of global
/// states `C^0, C^1, ...` of §2.2, advanced one communication-closed round
/// at a time.
///
/// The executor is model-agnostic: the communication-model discipline is
/// in the algorithm's type (see [`crate::Broadcast`] /
/// [`crate::Isotropic`]). Port assignment within a round uses the graph's
/// port labels when present (sorted by label) and edge insertion order
/// otherwise, so port-aware algorithms require port-colored static
/// graphs to be meaningful — exactly the paper's proviso (§2.2).
///
/// Faults are a transformation of delivery, not a second executor: a
/// [`RunConfig::faults`] plan runs the same round with a message-level
/// fault stage in the route (see [`Execution::drive`]).
#[derive(Clone, Debug)]
pub struct Execution<A: Algorithm> {
    algo: A,
    states: Vec<A::State>,
    round: u64,
}

impl<A: Algorithm> Execution<A> {
    /// Start an execution from the given initial states (one per agent).
    pub fn new(algo: A, initial_states: Vec<A::State>) -> Execution<A> {
        Execution {
            algo,
            states: initial_states,
            round: 0,
        }
    }

    /// Number of agents.
    pub fn n(&self) -> usize {
        self.states.len()
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Current states, indexed by agent.
    pub fn states(&self) -> &[A::State] {
        &self.states
    }

    /// Current outputs, indexed by agent.
    pub fn outputs(&self) -> Vec<A::Output> {
        self.states.iter().map(|s| self.algo.output(s)).collect()
    }

    /// The algorithm being executed.
    pub fn algorithm(&self) -> &A {
        &self.algo
    }

    /// Execute one round on the given communication graph.
    ///
    /// The graph must have `n()` vertices and a self-loop at every vertex
    /// (§2.1); [`Digraph::with_self_loops`] provides the closure.
    ///
    /// **Delivery order contract:** every inbox is delivered in ascending
    /// `(source id, port rank)` order, where the port rank of an edge is
    /// its index in the source's `(port label, edge id)`-sorted out-edge
    /// list. Algorithms must treat the inbox as a multiset, but f64
    /// summation is order-sensitive, so every round — sequential or
    /// sharded, observed or not, faulted or not — routes in this one
    /// order to keep float runs bit-identical across schedules
    /// (conformance check `paths`, `kya check`).
    ///
    /// # Panics
    ///
    /// Panics if the vertex count mismatches, a self-loop is missing, or
    /// the algorithm returns the wrong number of port messages.
    pub fn step(&mut self, graph: &Digraph) {
        self.run_round(graph, Local, &mut NullObserver, None);
    }

    /// Like [`Execution::step`], but computes sends and transitions in
    /// parallel across agents (`threads` crossbeam workers) over
    /// contiguous agent ranges.
    ///
    /// Bit-identical to `step`: the round is communication closed, so
    /// per-agent work is embarrassingly parallel, and the route between
    /// the two phases is the sequential one. Useful for large-`n`
    /// simulations; for small networks the sequential `step` is faster.
    ///
    /// # Panics
    ///
    /// Same contract as [`Execution::step`]; additionally panics if
    /// `threads == 0`.
    pub fn step_parallel(&mut self, graph: &Digraph, threads: usize)
    where
        A: Sync,
        A::State: Send + Sync,
        A::Msg: Send + Sync,
    {
        assert!(threads > 0, "at least one worker thread");
        self.run_round(graph, Sharded(threads), &mut NullObserver, None);
    }

    /// The one round every entry point runs: sends, a sequential route,
    /// transitions.
    ///
    /// 1. **Sends**, on `phases`; a crashed agent sends nothing.
    /// 2. **Route**, on the calling thread in canonical `(source id,
    ///    port rank)` order — the observer's `on_message` stream is this
    ///    loop, so it is identical at any thread count. With a fault
    ///    plan attached, each non-self-loop message is bounced if its
    ///    recipient is crashed, else dropped, duplicated, or delivered
    ///    per the plan's coins ([`FaultPlan::fate`]); lost messages fire
    ///    `on_message_dropped` and return to their sender. Faults delete
    ///    or duplicate inbox entries in place and never reorder them, so
    ///    a quiescent plan is bit-identical to no plan.
    /// 3. **Transitions**, on `phases`, each followed by
    ///    [`Algorithm::reabsorb`] of the agent's bounced messages; a
    ///    crashed agent's state stays frozen.
    fn run_round<P: Phases<A>, O: Observer<A> + ?Sized>(
        &mut self,
        graph: &Digraph,
        phases: P,
        obs: &mut O,
        mut faults: Option<(&FaultPlan, &mut FaultEvents)>,
    ) {
        assert_eq!(graph.n(), self.states.len(), "graph size != agent count");
        self.round += 1;
        let t = self.round;
        let n = graph.n();
        let frozen = match &mut faults {
            Some((plan, events)) if !plan.crashes().is_empty() => {
                let frozen: Vec<bool> = (0..n).map(|v| plan.is_crashed(v, t)).collect();
                if frozen.contains(&true) {
                    events.crashed_rounds += 1;
                    events.last_fault_round = t;
                }
                frozen
            }
            _ => Vec::new(),
        };
        obs.on_round_start(t, &self.states);
        for v in 0..n {
            assert!(
                graph.has_self_loop(v),
                "round {t}: vertex {v} lacks a self-loop"
            );
        }
        let input = RoundInput {
            round: t,
            algo: &self.algo,
            graph,
            frozen,
        };
        let mut routed = Routed {
            inboxes: (0..n)
                .map(|v| Vec::with_capacity(graph.indegree(v)))
                .collect(),
            bounced: match faults {
                Some(_) => vec![Vec::new(); n],
                None => Vec::new(),
            },
        };
        let order = graph.port_ranks();
        for (v, msgs) in phases.sends(&input, &self.states).enumerate() {
            for (msg, &e) in msgs.into_iter().zip(order.out_edges_ranked(v)) {
                let dst = graph.edges()[e].dst;
                let fate = match &mut faults {
                    Some((plan, events)) => {
                        let fate = plan.fate(t, v, dst, &input.frozen);
                        events.record(t, fate);
                        fate
                    }
                    None => Fate::Deliver,
                };
                match fate {
                    Fate::Deliver => {
                        obs.on_message(t, v, dst, &msg);
                        routed.inboxes[dst].push(msg);
                    }
                    Fate::Duplicate => {
                        obs.on_message(t, v, dst, &msg);
                        obs.on_message(t, v, dst, &msg);
                        routed.inboxes[dst].push(msg.clone());
                        routed.inboxes[dst].push(msg);
                    }
                    Fate::Dropped | Fate::Bounced => {
                        obs.on_message_dropped(t, v, dst, &msg);
                        routed.bounced[v].push(msg);
                    }
                }
            }
        }

        phases.transitions(&input, &routed, &mut self.states);
        obs.on_round_end(t, &self.algo, &self.states);
    }

    /// Execute one configured run — the single run entry point (see
    /// [`RunConfig`] for the knobs).
    ///
    /// Per round: apply the membership's rejoin policy (if churned),
    /// fetch the round's graph, run the round — sends and transitions
    /// sharded over `cfg.threads` contiguous agent ranges, the route
    /// (observer calls and fault stage included) sequential — and, if
    /// measuring, record the round's distance. Convergence at tolerance
    /// ε is judged post hoc over the whole trace (§2.3): the full budget
    /// is executed unless a [`RunConfig::confirm`] window closes early
    /// or an output goes non-finite (no later round can converge, so the
    /// run ends at once with [`CellReport::diverged_at`] set).
    ///
    /// Adversary activity delays convergence: the report's
    /// `last_fault_round` is the later of the last fault injected by a
    /// [`RunConfig::faults`] plan during this run and — when a
    /// [`RunConfig::membership`] is attached — the last membership
    /// transition inside the budget, and only rounds strictly after it
    /// can count as converged. The report's `events` count this run's
    /// faults.
    ///
    /// Non-consuming: the execution can be driven again afterwards; a
    /// second call measures from the current round. For unmeasured
    /// configs the report carries only `rounds_run` (and the adversary
    /// fields).
    ///
    /// # Panics
    ///
    /// Same per-round contract as [`Execution::step`]; additionally
    /// panics if `cfg.threads == 0` or the fault plan crashes an agent
    /// outside `0..n()`.
    pub fn drive(&mut self, net: &dyn DynamicGraph, cfg: RunConfig<'_, A>) -> CellReport
    where
        A: Sync,
        A::State: Send + Sync,
        A::Msg: Send + Sync,
    {
        let RunConfig {
            rounds,
            threads,
            mut observer,
            membership,
            dist,
            eps,
            confirm,
            invariant,
            bandwidth,
            faults,
        } = cfg;
        assert!(threads > 0, "at least one worker thread");
        for w in faults.map_or(&[][..], FaultPlan::crashes) {
            assert!(
                w.agent < self.n(),
                "crash window names agent {} but there are {} agents",
                w.agent,
                self.n()
            );
        }
        let start = self.round;
        let mut events = FaultEvents::default();
        let mut trace = Trace::new(start, dist, eps, confirm);
        for _ in 0..rounds {
            if let Some((membership, reinit)) = membership {
                self.apply_rejoins(membership, reinit);
            }
            let g = net.graph_ref(self.round + 1);
            if let Some((cap, ledger)) = bandwidth {
                ledger.charge_round(g.edge_count() as u64, cap.bits_per_edge());
            }
            let stage = faults.map(|plan| (plan, &mut events));
            match (&mut observer, threads) {
                (None, 1) => self.run_round(&g, Local, &mut NullObserver, stage),
                (None, t) => self.run_round(&g, Sharded(t), &mut NullObserver, stage),
                (Some(o), 1) => self.run_round(&g, Local, &mut **o, stage),
                (Some(o), t) => self.run_round(&g, Sharded(t), &mut **o, stage),
            }
            if trace.record(self.round, || self.outputs()) {
                break;
            }
        }
        // A membership transition past the budget is clamped to the
        // final round: the trace then stays unconverged, which is the
        // honest verdict.
        let churn = membership.map_or(0, |(membership, _)| {
            let last = membership.last_transition();
            if last > start {
                last.min(self.round)
            } else {
                0
            }
        });
        let last_fault_round = events.last_fault_round.max(churn);
        let mass = invariant.map(|f| f(&self.states));
        let report = trace.seal(last_fault_round, events, mass);
        if let Some(obs) = observer.as_mut() {
            if let Some(round) = report.converged_at {
                obs.on_converged(round, report.final_distance);
            }
        }
        report
    }

    /// Apply the membership's rejoin transitions for the **upcoming**
    /// round (`round() + 1`): under [`ReinjectPolicy::Reset`], every
    /// agent rejoining at that round has its parked state replaced by
    /// `reinit(agent, &parked)`; under [`ReinjectPolicy::Carry`] states
    /// are untouched. Returns the rejoining agents either way.
    ///
    /// `reinit` receives the parked state so callers can account the
    /// mass delta `fresh − parked` explicitly (the F8 ledger) — e.g. by
    /// accumulating into a `std::cell::Cell` captured by the closure.
    ///
    /// Call this immediately before stepping on the round's graph;
    /// [`Execution::drive`] does so for every round of a
    /// [`RunConfig::membership`] run.
    pub fn apply_rejoins(
        &mut self,
        membership: &Membership,
        reinit: &dyn Fn(usize, &A::State) -> A::State,
    ) -> Vec<usize> {
        let rejoining = membership.rejoining_at(self.round + 1);
        if membership.policy() == ReinjectPolicy::Reset {
            for &v in &rejoining {
                self.states[v] = reinit(v, &self.states[v]);
            }
        }
        rejoining
    }

    /// Run for up to `max_rounds` rounds against per-agent targets: the
    /// measured distance of a round is `max_i δ(output_i, targets[i])`,
    /// judged like [`RunConfig::measure`]. This is the primitive behind
    /// [`crate::testing::check_self_stabilization`].
    ///
    /// # Panics
    ///
    /// Panics if `targets.len() != n()`.
    pub fn run_until_targets<M: Metric<A::Output>>(
        &mut self,
        net: &dyn DynamicGraph,
        metric: &M,
        targets: &[A::Output],
        eps: f64,
        max_rounds: u64,
    ) -> CellReport
    where
        A: Sync,
        A::State: Send + Sync,
        A::Msg: Send + Sync,
    {
        assert_eq!(targets.len(), self.n(), "one target per agent");
        let dist = |outputs: &[A::Output]| {
            outputs
                .iter()
                .zip(targets)
                .map(|(o, t)| {
                    let d = metric.distance(o, t);
                    if d.is_finite() {
                        d
                    } else {
                        f64::INFINITY
                    }
                })
                .fold(0.0, f64::max)
        };
        self.drive(net, RunConfig::rounds(max_rounds).measure_with(dist, eps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{Broadcast, BroadcastAlgorithm};
    use kya_graph::{generators, StaticGraph};

    /// Gossip the set of seen values; output the set's maximum.
    #[derive(Clone)]
    struct SetGossip;
    impl BroadcastAlgorithm for SetGossip {
        type State = Vec<u32>; // sorted set
        type Msg = Vec<u32>;
        type Output = u32;
        fn message(&self, state: &Vec<u32>) -> Vec<u32> {
            state.clone()
        }
        fn transition(&self, state: &Vec<u32>, inbox: &[Vec<u32>]) -> Vec<u32> {
            let mut merged = state.clone();
            for m in inbox {
                merged.extend_from_slice(m);
            }
            merged.sort_unstable();
            merged.dedup();
            merged
        }
        fn output(&self, state: &Vec<u32>) -> u32 {
            *state.last().expect("non-empty set")
        }
    }

    #[test]
    fn gossip_floods_in_diameter_rounds() {
        let net = StaticGraph::new(generators::directed_ring(6));
        let inits: Vec<Vec<u32>> = [3, 9, 2, 9, 1, 4].iter().map(|&v| vec![v]).collect();
        let mut exec = Execution::new(Broadcast(SetGossip), inits);
        exec.drive(&net, RunConfig::rounds(5));
        assert!(exec.outputs().iter().all(|&x| x == 9));
        // All agents hold the full set.
        assert!(exec.states().iter().all(|s| s == &vec![1, 2, 3, 4, 9]));
    }

    #[test]
    fn measured_drive_reports_convergence() {
        use crate::metric::DiscreteMetric;
        let net = StaticGraph::new(generators::directed_ring(6));
        let inits: Vec<Vec<u32>> = (0..6).map(|v| vec![v]).collect();
        let mut exec = Execution::new(Broadcast(SetGossip), inits);
        let report = exec.drive(
            &net,
            RunConfig::rounds(20).measure(&DiscreteMetric, &5u32, 0.0),
        );
        // The max floods the ring in diameter = 5 rounds.
        assert_eq!(report.converged_at, Some(5));
        assert_eq!(report.convergence_rounds, Some(5));
        assert_eq!(report.rounds_run, 20, "full budget is executed");
        assert_eq!(report.final_distance, 0.0);
        assert_eq!(exec.round(), 20, "non-consuming: execution advanced");
    }

    #[test]
    fn confirm_window_stops_early() {
        use crate::metric::DiscreteMetric;
        let net = StaticGraph::new(generators::directed_ring(6));
        let inits: Vec<Vec<u32>> = (0..6).map(|v| vec![v]).collect();
        let mut exec = Execution::new(Broadcast(SetGossip), inits);
        let report = exec.drive(
            &net,
            RunConfig::rounds(10_000)
                .measure(&DiscreteMetric, &5u32, 0.0)
                .confirm(3),
        );
        assert_eq!(report.converged_at, Some(5));
        assert_eq!(report.rounds_run, 8, "5 to converge + 3 to confirm");
        assert_eq!(exec.round(), 8);
    }

    #[test]
    fn measured_drive_resumes_from_current_round() {
        use crate::metric::DiscreteMetric;
        let net = StaticGraph::new(generators::directed_ring(6));
        let inits: Vec<Vec<u32>> = (0..6).map(|v| vec![v]).collect();
        let mut exec = Execution::new(Broadcast(SetGossip), inits);
        exec.drive(&net, RunConfig::rounds(2));
        let report = exec.drive(
            &net,
            RunConfig::rounds(10).measure(&DiscreteMetric, &5u32, 0.0),
        );
        // Rounds are absolute: convergence still lands at round 5, but
        // only 3 of this call's rounds were needed.
        assert_eq!(report.converged_at, Some(5));
        assert_eq!(report.convergence_rounds, Some(3));
        assert_eq!(report.rounds_run, 10);
    }

    #[test]
    fn run_until_targets_checks_per_agent() {
        use crate::metric::DiscreteMetric;
        // Frozen states: each agent keeps its own value, so per-agent
        // targets equal to the initial values are hit at round 1.
        let net = StaticGraph::new(generators::directed_ring(3));
        let mut exec = Execution::new(Broadcast(Keep), vec![7, 8, 9]);
        let targets = [7u32, 8, 9];
        let report = exec.run_until_targets(&net, &DiscreteMetric, &targets, 0.0, 5);
        assert_eq!(report.converged_at, Some(1));
        // A wrong per-agent target never converges.
        let mut exec = Execution::new(Broadcast(Keep), vec![7, 8, 9]);
        let report = exec.run_until_targets(&net, &DiscreteMetric, &[7, 8, 0], 0.0, 5);
        assert_eq!(report.converged_at, None);
    }

    #[test]
    #[should_panic(expected = "one target per agent")]
    fn run_until_targets_rejects_wrong_arity() {
        use crate::metric::DiscreteMetric;
        let net = StaticGraph::new(generators::directed_ring(3));
        let mut exec = Execution::new(Broadcast(SetGossip), vec![vec![1], vec![2], vec![3]]);
        let _ = exec.run_until_targets(&net, &DiscreteMetric, &[1u32], 0.0, 5);
    }

    /// Frozen states: each agent keeps its value forever.
    struct Keep;
    impl BroadcastAlgorithm for Keep {
        type State = u32;
        type Msg = ();
        type Output = u32;
        fn message(&self, _: &u32) {}
        fn transition(&self, s: &u32, _: &[()]) -> u32 {
            *s
        }
        fn output(&self, s: &u32) -> u32 {
            *s
        }
    }

    /// [`Keep`] over f64 outputs.
    struct KeepF;
    impl BroadcastAlgorithm for KeepF {
        type State = f64;
        type Msg = ();
        type Output = f64;
        fn message(&self, _: &f64) {}
        fn transition(&self, s: &f64, _: &[()]) -> f64 {
            *s
        }
        fn output(&self, s: &f64) -> f64 {
            *s
        }
    }

    #[test]
    fn zero_budget_reports_nothing() {
        use crate::metric::DiscreteMetric;
        let net = StaticGraph::new(generators::directed_ring(3));
        let mut exec = Execution::new(Broadcast(Keep), vec![5, 5, 5]);
        let report = exec.drive(
            &net,
            RunConfig::rounds(0).measure(&DiscreteMetric, &5u32, 0.0),
        );
        // Zero rounds: nothing measured, so nothing converged — even
        // though the initial states already sit on the target.
        assert_eq!(report.rounds_run, 0);
        assert_eq!(report.converged_at, None);
        assert_eq!(report.final_distance, 0.0, "empty trace defaults to 0");
        assert!(report.distances.is_empty());
        assert_eq!(exec.round(), 0, "no rounds executed");
        // The early-exit variant behaves identically at budget 0.
        let report = exec.drive(
            &net,
            RunConfig::rounds(0)
                .measure(&DiscreteMetric, &5u32, 0.0)
                .confirm(3),
        );
        assert_eq!(report.rounds_run, 0);
        assert_eq!(report.converged_at, None);
    }

    #[test]
    fn churned_drive_converges_only_after_the_last_transition() {
        use crate::churn::{ChurnMasked, ChurnPlan};
        use crate::metric::DiscreteMetric;
        // Outputs sit on the target throughout, but agent 1 leaves at
        // round 5 and rejoins at round 10: membership transitions are
        // adversary activity, so convergence dates from round 11 — the
        // same verdict with or without a fault plan attached.
        let membership = ChurnPlan::new(0).leave(1, 5..10).membership(3);
        let net = ChurnMasked::new(
            StaticGraph::new(generators::directed_ring(3)),
            membership.clone(),
        );
        let keep = |_: usize, parked: &u32| *parked;
        let quiescent = FaultPlan::new(0);
        for plan in [None, Some(&quiescent)] {
            let mut exec = Execution::new(Broadcast(Keep), vec![5, 5, 5]);
            let mut cfg = RunConfig::rounds(20)
                .membership(&membership, &keep)
                .measure(&DiscreteMetric, &5u32, 0.0);
            if let Some(plan) = plan {
                cfg = cfg.faults(plan);
            }
            let report = exec.drive(&net, cfg);
            assert_eq!(report.last_fault_round, 10);
            assert_eq!(report.converged_at, Some(11));
            assert_eq!(report.convergence_rounds, Some(1));
        }
    }

    #[test]
    fn already_converged_states_report_round_one() {
        use crate::metric::{DiscreteMetric, EuclideanMetric};
        // Outputs sit on the target from the start; convergence is still
        // dated to the end of round 1, the first *measured* round.
        let net = StaticGraph::new(generators::directed_ring(3));
        let mut exec = Execution::new(Broadcast(Keep), vec![5, 5, 5]);
        let report = exec.drive(
            &net,
            RunConfig::rounds(4).measure(&DiscreteMetric, &5u32, 0.0),
        );
        assert_eq!(report.converged_at, Some(1));
        assert_eq!(report.convergence_rounds, Some(1));
        assert_eq!(report.rounds_run, 4);
        assert!(report.distances.iter().all(|&d| d == 0.0));
        // Same under a continuous metric on f64 outputs.
        let mut exec = Execution::new(Broadcast(KeepF), vec![2.5, 2.5, 2.5]);
        let report = exec.drive(
            &net,
            RunConfig::rounds(4).measure(&EuclideanMetric, &2.5, 0.0),
        );
        assert_eq!(report.converged_at, Some(1));
        // A confirm window stops right after it closes.
        let mut exec = Execution::new(Broadcast(Keep), vec![5, 5, 5]);
        let report = exec.drive(
            &net,
            RunConfig::rounds(1000)
                .measure(&DiscreteMetric, &5u32, 0.0)
                .confirm(2),
        );
        assert_eq!(report.converged_at, Some(1));
        assert_eq!(report.rounds_run, 3, "1 to converge + 2 to confirm");
    }

    #[test]
    fn eps_zero_discrete_vs_euclidean() {
        use crate::metric::{DiscreteMetric, EuclideanMetric};
        let net = StaticGraph::new(generators::directed_ring(3));
        // Outputs a hair off the target: the discrete metric says
        // distance 1 and the euclidean metric a tiny positive number —
        // at eps = 0.0 neither ever converges.
        let inits = vec![1.0, 1.0, 1.0 + 1e-12];
        let mut exec = Execution::new(Broadcast(KeepF), inits.clone());
        let report = exec.drive(
            &net,
            RunConfig::rounds(5).measure(&DiscreteMetric, &1.0, 0.0),
        );
        assert_eq!(report.converged_at, None);
        assert_eq!(report.final_distance, 1.0, "discrete: unequal is 1");
        let mut exec = Execution::new(Broadcast(KeepF), inits);
        let report = exec.drive(
            &net,
            RunConfig::rounds(5).measure(&EuclideanMetric, &1.0, 0.0),
        );
        assert_eq!(report.converged_at, None);
        assert!(report.final_distance > 0.0 && report.final_distance < 1e-11);
        // Exactly on target, eps = 0.0 converges under both metrics.
        let mut exec = Execution::new(Broadcast(KeepF), vec![1.0, 1.0, 1.0]);
        assert_eq!(
            exec.drive(
                &net,
                RunConfig::rounds(5).measure(&DiscreteMetric, &1.0, 0.0)
            )
            .converged_at,
            Some(1)
        );
        let mut exec = Execution::new(Broadcast(KeepF), vec![1.0, 1.0, 1.0]);
        assert_eq!(
            exec.drive(
                &net,
                RunConfig::rounds(5).measure(&EuclideanMetric, &1.0, 0.0)
            )
            .converged_at,
            Some(1)
        );
    }

    #[test]
    #[should_panic(expected = "lacks a self-loop")]
    fn missing_self_loop_rejected() {
        let g = generators::directed_ring(3); // no self-loops
        let mut exec = Execution::new(Broadcast(SetGossip), vec![vec![1], vec![2], vec![3]]);
        exec.step(&g);
    }

    #[test]
    #[should_panic(expected = "graph size")]
    fn size_mismatch_rejected() {
        let g = generators::directed_ring(4).with_self_loops();
        let mut exec = Execution::new(Broadcast(SetGossip), vec![vec![1]]);
        exec.step(&g);
    }

    #[test]
    fn parallel_step_matches_sequential() {
        let g = generators::random_strongly_connected(12, 10, 3).with_self_loops();
        let inits: Vec<Vec<u32>> = (0..12).map(|v| vec![v % 4]).collect();
        let mut seq = Execution::new(Broadcast(SetGossip), inits.clone());
        let mut par = Execution::new(Broadcast(SetGossip), inits);
        for _ in 0..8 {
            seq.step(&g);
            par.step_parallel(&g, 4);
            assert_eq!(seq.states(), par.states());
            assert_eq!(seq.round(), par.round());
        }
    }

    /// Order-sensitive f64 fold: the sum of the inbox, accumulated in
    /// delivery order. Any reordering of the inbox changes the rounding
    /// and hence the bit pattern of the result.
    #[derive(Clone)]
    struct OrderSum;
    impl BroadcastAlgorithm for OrderSum {
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

    #[test]
    fn parallel_step_keeps_canonical_delivery_order() {
        // In-star built with sources in *descending* order, so the
        // center's in-edge list is the reverse of the canonical
        // ascending-source delivery order; the self-loops come last.
        // Routing by in-edge list would deliver in that order, and the
        // f64 fold below would round differently.
        let n = 6;
        let mut g = Digraph::new(n);
        for src in (1..n).rev() {
            g.add_edge(src, 0);
        }
        let g = g.with_self_loops();
        // Magnitudes spread far enough that every permutation of the
        // sum rounds differently.
        let inits = vec![1e16, 3.0, 1e-7, 2.0, 1e7, 1.0];
        let mut seq = Execution::new(Broadcast(OrderSum), inits.clone());
        let mut par = Execution::new(Broadcast(OrderSum), inits);
        for _ in 0..4 {
            seq.step(&g);
            par.step_parallel(&g, 3);
            for (a, b) in seq.states().iter().zip(par.states()) {
                assert_eq!(a.to_bits(), b.to_bits(), "f64 paths diverged bitwise");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn parallel_step_rejects_zero_threads() {
        let g = generators::directed_ring(2).with_self_loops();
        let mut exec = Execution::new(Broadcast(SetGossip), vec![vec![1], vec![2]]);
        exec.step_parallel(&g, 0);
    }

    #[test]
    fn deterministic_replay() {
        let net = StaticGraph::new(generators::random_strongly_connected(8, 6, 11));
        let inits: Vec<Vec<u32>> = (0..8).map(|v| vec![v * 7 % 5]).collect();
        let mut a = Execution::new(Broadcast(SetGossip), inits.clone());
        let mut b = Execution::new(Broadcast(SetGossip), inits);
        a.drive(&net, RunConfig::rounds(10));
        b.drive(&net, RunConfig::rounds(10));
        assert_eq!(a.states(), b.states());
    }
}
