//! CSR routing plans: the canonical delivery order of a [`Digraph`],
//! frozen into flat offset arrays.
//!
//! Every executor in this workspace delivers each inbox in ascending
//! `(source id, port rank)` order. The boxed executors re-derive that
//! order every round by sorting per-destination message lists; a
//! [`RoutingPlan`] instead sorts **once** at construction and records,
//! for every inbox slot, the agent that feeds it. Isotropic agents send
//! one message on every port, so a round of routing degenerates to a
//! gather from a per-agent message buffer, `inbox[s] = msgs[gather[s]]`,
//! with zero comparisons, zero allocation, and a layout that shards over
//! contiguous vertex ranges — the backbone of the flat executor's
//! million-agent hot path.
//!
//! Layout (all offsets in *message slots*, one slot per edge):
//!
//! - `send_start[v]..send_start[v + 1]` — the out-edges of vertex `v`,
//!   whose length is `v`'s outdegree.
//! - `inbox_start[v]..inbox_start[v + 1]` — the inbox slots of `v`, in
//!   canonical `(source id, port rank)` order.
//! - `gather[s]` — for each inbox slot `s`, its source agent. Parallel
//!   edges repeat their source once per edge.

use crate::digraph::{Digraph, Vertex};
use std::ops::Range;

/// A precomputed gather plan realizing the canonical delivery order of
/// one [`Digraph`]; see the module docs for the layout.
#[derive(Clone, Debug)]
pub struct RoutingPlan {
    n: usize,
    send_start: Vec<usize>,
    inbox_start: Vec<usize>,
    gather: Vec<usize>,
}

impl RoutingPlan {
    /// Freeze the canonical routing of `g` into a gather plan.
    pub fn new(g: &Digraph) -> RoutingPlan {
        let n = g.n();
        let mut send_start = Vec::with_capacity(n + 1);
        send_start.push(0usize);
        for v in 0..n {
            send_start.push(send_start[v] + g.outdegree(v));
        }
        let mut inbox_start = Vec::with_capacity(n + 1);
        inbox_start.push(0usize);
        for v in 0..n {
            inbox_start.push(inbox_start[v] + g.indegree(v));
        }
        let edges = g.edges();
        let mut gather = Vec::with_capacity(g.edge_count());
        for v in 0..n {
            let inbox = gather.len();
            gather.extend(g.in_edges(v).map(|e| edges[e].src));
            // Parallel edges from one source carry the same message, so
            // sorting by source alone yields exactly the messages of the
            // canonical `(source id, port rank)` order.
            gather[inbox..].sort_unstable();
        }
        RoutingPlan {
            n,
            send_start,
            inbox_start,
            gather,
        }
    }

    /// Number of vertices the plan was built for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total number of message slots (= the graph's edge count).
    pub fn slots(&self) -> usize {
        self.gather.len()
    }

    /// The inbox slots of vertex `v`, in canonical order.
    pub fn inbox_range(&self, v: Vertex) -> Range<usize> {
        self.inbox_start[v]..self.inbox_start[v + 1]
    }

    /// For each inbox slot, the source agent that feeds it.
    pub fn gather(&self) -> &[usize] {
        &self.gather
    }

    /// Out-degree of vertex `v` under the plan.
    pub fn outdegree(&self, v: Vertex) -> usize {
        self.send_start[v + 1] - self.send_start[v]
    }

    /// In-degree of vertex `v` under the plan (= its inbox-slot count).
    pub fn indegree(&self, v: Vertex) -> usize {
        self.inbox_start[v + 1] - self.inbox_start[v]
    }

    /// Out-edges owned by the contiguous vertex range — the shard
    /// accounting behind the flat executor's per-shard probe counters
    /// (a shard's sources feed exactly this many slots in phase 1).
    pub fn send_slots_in(&self, range: Range<Vertex>) -> usize {
        self.send_start[range.end] - self.send_start[range.start]
    }

    /// Inbox slots owned by the contiguous vertex range — the number of
    /// messages a phase-2 shard gathers and folds.
    pub fn inbox_slots_in(&self, range: Range<Vertex>) -> usize {
        self.inbox_start[range.end] - self.inbox_start[range.start]
    }

    /// Resident size of the plan's arrays in bytes.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<usize>()
            * (self.send_start.len() + self.inbox_start.len() + self.gather.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_replays_the_canonical_delivery_order() {
        // In-star on 4 vertices with self-loops: every spoke sends to the
        // hub (vertex 0), sources in descending insertion order.
        let mut g = Digraph::new(4);
        for v in (1..4).rev() {
            g.add_edge(v, 0);
        }
        let g = g.with_self_loops();
        let plan = RoutingPlan::new(&g);
        assert_eq!(plan.n(), 4);
        assert_eq!(plan.slots(), g.edge_count());
        // Hub inbox: sources 0 (self-loop), 1, 2, 3 in ascending order
        // regardless of edge insertion order.
        assert_eq!(&plan.gather()[plan.inbox_range(0)], &[0, 1, 2, 3]);
        // Every in-edge of every vertex is fed by its own source.
        let edges = g.edges();
        for v in 0..4 {
            assert_eq!(plan.inbox_range(v).len(), g.indegree(v));
            for &src in &plan.gather()[plan.inbox_range(v)] {
                assert!(edges.iter().any(|e| e.src == src && e.dst == v));
            }
        }
    }

    #[test]
    fn shard_accounting_partitions_the_slots() {
        let mut g = Digraph::new(5);
        for v in (1..5).rev() {
            g.add_edge(v, 0);
        }
        g.add_edge(0, 3);
        let g = g.with_self_loops();
        let plan = RoutingPlan::new(&g);
        for v in 0..5 {
            assert_eq!(plan.outdegree(v), g.outdegree(v));
            assert_eq!(plan.indegree(v), g.indegree(v));
            assert_eq!(plan.send_slots_in(v..v + 1), plan.outdegree(v));
            assert_eq!(plan.inbox_slots_in(v..v + 1), plan.inbox_range(v).len());
        }
        // Any split of 0..n partitions the slot total exactly.
        for cut in 0..=5 {
            assert_eq!(
                plan.send_slots_in(0..cut) + plan.send_slots_in(cut..5),
                plan.slots()
            );
            assert_eq!(
                plan.inbox_slots_in(0..cut) + plan.inbox_slots_in(cut..5),
                plan.slots()
            );
        }
        assert_eq!(plan.send_slots_in(2..2), 0);
    }

    #[test]
    fn parallel_edges_get_distinct_slots_in_rank_order() {
        let mut g = Digraph::new(2);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        g.add_edge(0, 0);
        g.add_edge(1, 1);
        let plan = RoutingPlan::new(&g);
        // Vertex 1's inbox: one slot per parallel 0->1 edge, each fed by
        // source 0, then the self-loop.
        assert_eq!(&plan.gather()[plan.inbox_range(1)], &[0, 0, 1]);
        assert_eq!(plan.outdegree(0), 3);
    }
}
