//! The Lifting Lemma, executable (Lemma 3.1 / §3.1).
//!
//! If `φ: G -> B` is a fibration and `C⁰, C¹, ...` is an execution of an
//! algorithm on `B`, then copying states fibrewise gives an execution on
//! `G`. This module runs both executions side by side and checks the
//! claim round by round — turning the paper's impossibility engine into a
//! property that can be tested on random graphs and algorithms.
//!
//! Consequences checked downstream: agents in the same fibre behave
//! identically forever (so any `δ`-computed function satisfies
//! `f^φ = f`, Lemma 3.2), and therefore the sum is not computable — two
//! networks with equal frequencies but different sizes collapse onto the
//! same base and must produce the same outputs (§4.1).

use kya_fibration::GraphMorphism;
use kya_graph::{Digraph, DynamicGraph, StaticGraph};
use kya_runtime::{Algorithm, Execution};
use std::fmt;

/// A violation found while checking the Lifting Lemma empirically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LiftingViolation {
    /// The first round at which the lifted base state differed from the
    /// direct execution on the total graph.
    pub round: u64,
    /// The vertex of the total graph where the states differ.
    pub vertex: usize,
}

impl fmt::Display for LiftingViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lifting lemma violated at round {} on vertex {}",
            self.round, self.vertex
        )
    }
}

impl std::error::Error for LiftingViolation {}

/// Run `algo` on the base `b` from `base_inits`, and on the total graph
/// `g` from the fibrewise lift of `base_inits`; verify after every round
/// that the direct execution on `g` equals the lifted base execution.
///
/// Preconditions (caller's responsibility, matching the lemma's):
/// `phi` must be a fibration `g -> b`; for isotropic (outdegree-aware)
/// algorithms it must preserve outdegrees, and for port-aware algorithms
/// it must be a covering of port-colored graphs. Both graphs must carry
/// self-loops. The algorithm's transition must be genuinely
/// multiset-invariant (the executor may deliver inboxes in different
/// orders on `g` and `b`) and its state equality exact — use integer or
/// exact-rational algorithms here, not `f64`.
///
/// # Errors
///
/// The first [`LiftingViolation`] encountered, if any.
///
/// # Panics
///
/// Panics if `base_inits.len() != b.n()` or the morphism shape is wrong.
pub fn check_lifting<A>(
    algo: &A,
    g: &Digraph,
    b: &Digraph,
    phi: &GraphMorphism,
    base_inits: Vec<A::State>,
    rounds: u64,
) -> Result<(), LiftingViolation>
where
    A: Algorithm + Clone,
    A::State: PartialEq,
{
    assert_eq!(base_inits.len(), b.n(), "one initial state per base vertex");
    assert_eq!(phi.vertex_map.len(), g.n(), "morphism shape mismatch");
    let lifted_inits: Vec<A::State> = phi.lift_valuation(&base_inits);

    let base_net = StaticGraph::new(b.clone());
    let total_net = StaticGraph::new(g.clone());
    let mut base_exec = Execution::new(algo.clone(), base_inits);
    let mut total_exec = Execution::new(algo.clone(), lifted_inits);

    for round in 1..=rounds {
        base_exec.step(&base_net.graph(round));
        total_exec.step(&total_net.graph(round));
        for v in 0..g.n() {
            let lifted = &base_exec.states()[phi.vertex_map[v]];
            if &total_exec.states()[v] != lifted {
                return Err(LiftingViolation { round, vertex: v });
            }
        }
    }
    Ok(())
}

/// Build the classic ring fibration `R_n -> R_p` of §4.1 (`p` must
/// divide `n`): vertex `i` maps to `i mod p`. Returns `(R_n, R_p, φ)`
/// *without* self-loops (add them before executing).
///
/// # Panics
///
/// Panics if `p == 0` or `p` does not divide `n`.
pub fn ring_fibration(n: usize, p: usize) -> (Digraph, Digraph, GraphMorphism) {
    assert!(p > 0 && n.is_multiple_of(p), "p must divide n");
    let g = kya_graph::generators::directed_ring(n);
    let b = kya_graph::generators::directed_ring(p);
    let phi = GraphMorphism {
        vertex_map: (0..n).map(|v| v % p).collect(),
        edge_map: (0..n).map(|e| e % p).collect(),
    };
    (g, b, phi)
}

/// Extend a fibration of loop-less graphs to their self-loop closures:
/// vertex maps are unchanged; each added loop upstairs maps to the added
/// loop downstairs.
///
/// Assumes neither graph had any self-loops before closure and that
/// `with_self_loops` appends loops in vertex order (which it does).
pub fn close_fibration(
    phi: &GraphMorphism,
    g: &Digraph,
    b: &Digraph,
) -> (Digraph, Digraph, GraphMorphism) {
    let gc = g.with_self_loops();
    let bc = b.with_self_loops();
    let mut edge_map = phi.edge_map.clone();
    // Loops are appended after the original edges, one per vertex in
    // vertex order (for vertices lacking one).
    let g_loop_start = g.edge_count();
    let b_loop_start = b.edge_count();
    let mut b_loop_of_vertex = vec![usize::MAX; b.n()];
    let mut idx = b_loop_start;
    for (v, slot) in b_loop_of_vertex.iter_mut().enumerate() {
        if !b.has_self_loop(v) {
            *slot = idx;
            idx += 1;
        }
    }
    let mut g_idx = g_loop_start;
    for v in 0..g.n() {
        if !g.has_self_loop(v) {
            debug_assert_eq!(gc.edges()[g_idx].src, v);
            edge_map.push(b_loop_of_vertex[phi.vertex_map[v]]);
            g_idx += 1;
        }
    }
    (
        gc,
        bc,
        GraphMorphism {
            vertex_map: phi.vertex_map.clone(),
            edge_map,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gossip::SetGossip;
    use crate::push_sum::{PushSum, PushSumState};
    use kya_arith::BigRational;
    use kya_fibration::verify_fibration;
    use kya_runtime::RunConfig;
    use kya_runtime::{Broadcast, Isotropic};

    #[test]
    fn ring_fibration_closure_verifies() {
        let (g, b, phi) = ring_fibration(8, 4);
        let (gc, bc, phic) = close_fibration(&phi, &g, &b);
        verify_fibration(&phic, &gc, &bc, &[], &[]).expect("closure stays a fibration");
    }

    #[test]
    fn gossip_lifts_along_ring_fibration() {
        let (g, b, phi) = ring_fibration(9, 3);
        let (gc, bc, phic) = close_fibration(&phi, &g, &b);
        let base_inits = SetGossip::initial(&[10, 20, 30]);
        check_lifting(&Broadcast(SetGossip), &gc, &bc, &phic, base_inits, 15)
            .expect("gossip satisfies the lifting lemma");
    }

    #[test]
    fn exact_push_sum_lifts_along_outdegree_preserving_fibration() {
        // Ring fibrations preserve outdegrees (every vertex has outdegree
        // 2 after closure), so isotropic algorithms lift too.
        let (g, b, phi) = ring_fibration(6, 2);
        let (gc, bc, phic) = close_fibration(&phi, &g, &b);
        let base_inits = PushSumState::<BigRational>::averaging(&[1.0, 5.0]);
        check_lifting(
            &Isotropic(PushSum::<BigRational>::new()),
            &gc,
            &bc,
            &phic,
            base_inits,
            12,
        )
        .expect("push-sum satisfies the lifting lemma");
    }

    #[test]
    fn sum_is_invisible_across_lifted_networks() {
        // The §4.1 impossibility, executed: R_2 and R_4 with inputs
        // (1, 3) and (1, 3, 1, 3) have equal frequencies but sums 4 and
        // 8. Any algorithm's outputs on R_4 equal its outputs on R_2
        // lifted — here shown for exact Push-Sum averaging, whose common
        // limit is the average 2, not either sum.
        let (g, b, phi) = ring_fibration(4, 2);
        let (gc, bc, phic) = close_fibration(&phi, &g, &b);
        let base_inits = PushSumState::<BigRational>::averaging(&[1.0, 3.0]);
        let lifted = phic.lift_valuation(&base_inits);

        let mut small =
            kya_runtime::Execution::new(Isotropic(PushSum::<BigRational>::new()), base_inits);
        let mut large =
            kya_runtime::Execution::new(Isotropic(PushSum::<BigRational>::new()), lifted);
        let small_net = StaticGraph::new(bc);
        let large_net = StaticGraph::new(gc);
        small.drive(&small_net, RunConfig::rounds(40));
        large.drive(&large_net, RunConfig::rounds(40));
        // Outputs agree fibrewise — so no algorithm output can reflect
        // the differing sums.
        for v in 0..4 {
            assert_eq!(
                large.outputs()[v],
                small.outputs()[phic.vertex_map[v]],
                "fibrewise output equality"
            );
        }
        // And the common value is the average.
        let two = BigRational::from_integer(2);
        for x in small.outputs() {
            assert!((&x - &two).abs() < BigRational::from_i64(1, 1000));
        }
    }

    #[test]
    fn violation_is_reported_for_non_fibrations() {
        // Map R_4 onto R_2 with a *wrong* vertex map (not periodic):
        // states diverge and the checker says where.
        let g = kya_graph::generators::directed_ring(4);
        let b = kya_graph::generators::directed_ring(2);
        let phi = GraphMorphism {
            vertex_map: vec![0, 1, 1, 0], // not i mod 2
            edge_map: vec![0, 1, 0, 1],   // arbitrary
        };
        let (gc, bc, phic) = close_fibration(&phi, &g, &b);
        // This is not a fibration; the lemma's conclusion fails for an
        // input assignment that separates the mismapped vertices.
        let base_inits = SetGossip::initial(&[100, 200]);
        let result = check_lifting(&Broadcast(SetGossip), &gc, &bc, &phic, base_inits, 6);
        assert!(result.is_err());
    }
}
