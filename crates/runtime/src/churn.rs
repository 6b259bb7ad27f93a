//! Churn: agents leaving and rejoining the network (experiment F8).
//!
//! The paper's model fixes the agent set once and for all; population
//! protocols (Angluin et al., PAPERS.md) do not — agents come and go,
//! and the interesting question is which quantities an algorithm can
//! stabilize on *despite* the churn. This module scripts churn the same
//! way [`crate::faults`] scripts faults: a deterministic, serializable
//! [`ChurnPlan`] of per-agent absence windows, realized as a **graph
//! masking** (the §5.3 idiom): an absent agent keeps only its self-loop,
//! so its state is parked, not destroyed.
//!
//! Parking is exact for the mass-splitting algorithms: Push-Sum with
//! only a self-loop sends its whole `(y, z)` to itself and re-sums it,
//! and Metropolis with an empty neighborhood adds zero correction terms
//! — the frozen state is *bit-identical* round over round, even in f64.
//! What happens to the parked mass at rejoin is the [`ReinjectPolicy`]:
//!
//! - [`ReinjectPolicy::Carry`]: the agent resumes from its parked state.
//!   Total mass over **all** agents (present or not) is exactly
//!   conserved — the conformance oracle checks this in exact arithmetic.
//! - [`ReinjectPolicy::Reset`]: the agent rejoins with a fresh state
//!   (new input value, unit weight, …) supplied by a caller-provided
//!   reinit function. The mass delta `fresh − parked` is explicit at the
//!   call site, so the oracle can check conservation *modulo the ledger
//!   of declared deltas*.
//!
//! The executor side is the [`RunConfig::membership`](crate::RunConfig::membership)
//! knob of [`crate::Execution::drive`], which applies the rejoin policy
//! before every round and delays the convergence verdict past the last
//! transition; the composition order with the other adversaries is
//! pairing ∘ churn ∘ faults ∘ async-starts (see DESIGN.md).

use kya_graph::{Digraph, DynamicGraph};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::ops::Range;

/// One agent-absence interval of a [`ChurnPlan`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnWindow {
    /// The churning agent.
    pub agent: usize,
    /// First absent round (rounds are numbered from 1).
    pub leave: u64,
    /// First round the agent is back (exclusive bound); `None` means the
    /// agent departs for good.
    pub rejoin: Option<u64>,
}

impl ChurnWindow {
    /// Whether the agent is absent at round `t` under this window.
    pub fn covers(&self, t: u64) -> bool {
        t >= self.leave && self.rejoin.is_none_or(|r| t < r)
    }
}

/// What an agent's state becomes when it rejoins after an absence.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReinjectPolicy {
    /// Resume from the parked state: the mass the agent left with comes
    /// back with it, and total mass is exactly conserved.
    #[default]
    Carry,
    /// Rejoin with a fresh state from the caller's reinit function; the
    /// mass delta is the caller's explicit responsibility (the
    /// conformance oracle audits it as a ledger).
    Reset,
}

/// A deterministic, serializable churn script: which agents are absent
/// when, and what happens to their mass at rejoin.
///
/// Like [`crate::faults::FaultPlan`], the plan is pure data — it can be
/// stored next to an experiment's JSON output and replayed exactly. The
/// seed identifies the script for provenance (and seeds any future
/// randomized churn); the windows themselves are explicit.
///
/// ```
/// use kya_runtime::churn::{ChurnPlan, ReinjectPolicy};
///
/// let plan = ChurnPlan::new(7)
///     .leave(2, 10..40)          // agent 2 is away for rounds 10..40
///     .depart(5, 60)             // agent 5 leaves for good at round 60
///     .policy(ReinjectPolicy::Reset);
/// assert!(!plan.is_quiescent());
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChurnPlan {
    seed: u64,
    windows: Vec<ChurnWindow>,
    policy: ReinjectPolicy,
}

impl ChurnPlan {
    /// A quiescent plan (no churn) with the given seed.
    pub fn new(seed: u64) -> ChurnPlan {
        ChurnPlan {
            seed,
            windows: Vec::new(),
            policy: ReinjectPolicy::Carry,
        }
    }

    /// `agent` is absent for the rounds in `window` (leave + rejoin).
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or starts at round 0.
    pub fn leave(mut self, agent: usize, window: Range<u64>) -> ChurnPlan {
        assert!(window.start >= 1, "rounds are numbered from 1");
        assert!(window.start < window.end, "empty churn window");
        self.windows.push(ChurnWindow {
            agent,
            leave: window.start,
            rejoin: Some(window.end),
        });
        self
    }

    /// `agent` leaves at round `from` and never comes back.
    ///
    /// # Panics
    ///
    /// Panics if `from == 0`.
    pub fn depart(mut self, agent: usize, from: u64) -> ChurnPlan {
        assert!(from >= 1, "rounds are numbered from 1");
        self.windows.push(ChurnWindow {
            agent,
            leave: from,
            rejoin: None,
        });
        self
    }

    /// Set the mass re-injection policy for every rejoin in the plan.
    pub fn policy(mut self, policy: ReinjectPolicy) -> ChurnPlan {
        self.policy = policy;
        self
    }

    /// The plan's seed (provenance only — the windows are explicit).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scripted absence windows.
    pub fn windows(&self) -> &[ChurnWindow] {
        &self.windows
    }

    /// The mass re-injection policy.
    pub fn reinject_policy(&self) -> ReinjectPolicy {
        self.policy
    }

    /// Whether the plan scripts no churn at all.
    pub fn is_quiescent(&self) -> bool {
        self.windows.is_empty()
    }

    /// The round-indexed membership view over `n` agents — the form the
    /// executors and the [`ChurnMasked`] adversary consume.
    ///
    /// # Panics
    ///
    /// Panics if a window names an agent outside `0..n`.
    pub fn membership(&self, n: usize) -> Membership {
        for w in &self.windows {
            assert!(
                w.agent < n,
                "churn window names agent {} but the network has {n} agents",
                w.agent
            );
        }
        Membership {
            n,
            windows: self.windows.clone(),
            policy: self.policy,
        }
    }
}

/// The round-indexed membership view of a [`ChurnPlan`]: who is present
/// when, over a fixed universe of `n` agent slots.
///
/// Built by [`ChurnPlan::membership`]; threaded through
/// [`RunConfig::membership`](crate::RunConfig::membership) and into the
/// [`ChurnMasked`] graph adversary.
#[derive(Clone, Debug, PartialEq)]
pub struct Membership {
    n: usize,
    windows: Vec<ChurnWindow>,
    policy: ReinjectPolicy,
}

impl Membership {
    /// A full membership (no churn) over `n` agents.
    pub fn full(n: usize) -> Membership {
        Membership {
            n,
            windows: Vec::new(),
            policy: ReinjectPolicy::Carry,
        }
    }

    /// The size of the agent universe (present or not).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether `agent` is present at round `t`.
    pub fn is_member(&self, agent: usize, t: u64) -> bool {
        !self.windows.iter().any(|w| w.agent == agent && w.covers(t))
    }

    /// The number of present agents at round `t`.
    pub fn live_count(&self, t: u64) -> usize {
        (0..self.n).filter(|&v| self.is_member(v, t)).count()
    }

    /// The agents rejoining exactly at round `t` (absent at `t - 1`,
    /// present at `t`), in ascending order and without duplicates.
    pub fn rejoining_at(&self, t: u64) -> Vec<usize> {
        if t < 2 {
            return Vec::new();
        }
        (0..self.n)
            .filter(|&v| !self.is_member(v, t - 1) && self.is_member(v, t))
            .collect()
    }

    /// The mass re-injection policy.
    pub fn policy(&self) -> ReinjectPolicy {
        self.policy
    }

    /// Whether the membership never changes.
    pub fn is_quiescent(&self) -> bool {
        self.windows.is_empty()
    }

    /// The last round at which membership changes (an agent leaves or
    /// rejoins). Permanent departures change state once, when they
    /// begin. Returns 0 for a churn-free membership.
    pub fn last_transition(&self) -> u64 {
        self.windows
            .iter()
            .map(|w| w.rejoin.unwrap_or(w.leave))
            .max()
            .unwrap_or(0)
    }
}

/// A [`DynamicGraph`] adversary masking out absent agents: an agent not
/// in the round's membership keeps *only* its self-loop, so its state is
/// parked while the rest of the network keeps communicating. The same
/// invariant-preserving shape as [`crate::adversary::AsyncStarts`] and
/// [`crate::faults::FaultyNetwork`] — churn composes freely with both.
#[derive(Clone, Debug)]
pub struct ChurnMasked<G> {
    inner: G,
    membership: Membership,
}

impl<G: DynamicGraph> ChurnMasked<G> {
    /// Wrap `inner` with a membership view.
    ///
    /// # Panics
    ///
    /// Panics if the membership universe differs from the network size.
    pub fn new(inner: G, membership: Membership) -> ChurnMasked<G> {
        assert_eq!(
            membership.n(),
            inner.n(),
            "membership universe != network size"
        );
        ChurnMasked { inner, membership }
    }

    /// The membership view.
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// The wrapped churn-free network.
    pub fn inner(&self) -> &G {
        &self.inner
    }
}

impl<G: DynamicGraph> DynamicGraph for ChurnMasked<G> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn graph(&self, t: u64) -> Digraph {
        if self.membership.is_quiescent() {
            return self.inner.graph(t);
        }
        let g = self.inner.graph(t);
        let mut out = Digraph::new(g.n());
        for e in g.edges() {
            // Self-loops always survive, even on absent agents: the
            // parked agent still "hears itself", which is what keeps the
            // mass-splitting algorithms exactly frozen.
            if e.src == e.dst
                || (self.membership.is_member(e.src, t) && self.membership.is_member(e.dst, t))
            {
                out.add_edge_with_port(e.src, e.dst, e.port);
            }
        }
        out.with_self_loops()
    }

    fn graph_ref(&self, t: u64) -> Cow<'_, Digraph> {
        if self.membership.is_quiescent() {
            self.inner.graph_ref(t)
        } else {
            Cow::Owned(self.graph(t))
        }
    }

    fn diameter_hint(&self) -> Option<usize> {
        // Any absence window voids the inner bound: information cannot
        // route through a parked agent.
        if self.membership.is_quiescent() {
            self.inner.diameter_hint()
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kya_graph::{generators, StaticGraph};

    #[test]
    fn plan_roundtrips_through_json() {
        let plan = ChurnPlan::new(3)
            .leave(1, 5..9)
            .depart(2, 20)
            .policy(ReinjectPolicy::Reset);
        let json = serde::to_json_string(&plan);
        let back: ChurnPlan = serde::from_json_str(&json).expect("parses");
        assert_eq!(back, plan);
    }

    #[test]
    fn membership_tracks_windows() {
        let m = ChurnPlan::new(0).leave(1, 3..6).depart(3, 8).membership(5);
        assert_eq!(m.n(), 5);
        assert!(m.is_member(1, 2));
        assert!(!m.is_member(1, 3) && !m.is_member(1, 5));
        assert!(m.is_member(1, 6));
        assert!(!m.is_member(3, 100), "permanent departure");
        assert_eq!(m.live_count(4), 4);
        assert_eq!(m.live_count(9), 4);
        assert_eq!(m.rejoining_at(6), vec![1]);
        assert!(m.rejoining_at(5).is_empty() && m.rejoining_at(7).is_empty());
        assert_eq!(m.last_transition(), 8);
        assert_eq!(Membership::full(5).last_transition(), 0);
    }

    #[test]
    #[should_panic(expected = "names agent")]
    fn membership_rejects_out_of_range_agents() {
        let _ = ChurnPlan::new(0).depart(7, 1).membership(4);
    }

    #[test]
    fn absent_agent_keeps_only_self_loop() {
        let net = ChurnMasked::new(
            StaticGraph::new(generators::complete(4)),
            ChurnPlan::new(0).leave(2, 3..6).membership(4),
        );
        let g = net.graph(4);
        assert!(g.has_self_loop(2));
        assert_eq!(g.outdegree(2), 1, "only the self-loop");
        assert_eq!(g.indegree(2), 1, "only the self-loop");
        // Before and after the window the agent is fully wired.
        assert_eq!(net.graph(2).outdegree(2), 4);
        assert_eq!(net.graph(6).outdegree(2), 4);
        assert_eq!(net.diameter_hint(), None);
    }

    #[test]
    fn quiescent_churn_is_identity_adversary() {
        let inner = StaticGraph::new(generators::random_strongly_connected(6, 4, 5));
        let masked = ChurnMasked::new(
            StaticGraph::new(generators::random_strongly_connected(6, 4, 5)),
            ChurnPlan::new(0).membership(6),
        );
        for t in 1..10 {
            assert_eq!(
                inner.graph(t).multiplicity_matrix(),
                masked.graph(t).multiplicity_matrix(),
                "round {t}"
            );
        }
        assert_eq!(masked.diameter_hint(), inner.diameter_hint());
        assert!(matches!(masked.graph_ref(1), Cow::Borrowed(_)));
    }
}
