//! Integration: the negative cells of Tables 1–2, demonstrated through
//! the executable Lifting Lemma (§3.1, §4.1).
//!
//! These tests do not *prove* impossibility (the paper does); they
//! execute the exact counterexample construction the proofs use and
//! verify the indistinguishability it rests on, for representative
//! algorithms of each model.

use know_your_audience::algos::frequency::CensusOutdegree;
use know_your_audience::algos::gossip::SetGossip;
use know_your_audience::algos::lifting::{check_lifting, close_fibration, ring_fibration};
use know_your_audience::algos::min_base::{MinBaseOutdegree, ViewState};
use know_your_audience::algos::push_sum::{PushSum, PushSumState};
use know_your_audience::arith::BigRational;
use know_your_audience::fibration::{verify_covering, verify_fibration};
use know_your_audience::graph::StaticGraph;
use know_your_audience::runtime::{Broadcast, Execution, Isotropic, RunConfig};

/// §4.1's construction: vectors v (length 6) and w (length 3) with the
/// same frequency function, both collapsing onto R_3.
#[test]
fn ring_collapse_identifies_frequency_equivalent_inputs() {
    let (g6, b3, phi6) = ring_fibration(6, 3);
    let (g6c, b3c, phi6c) = close_fibration(&phi6, &g6, &b3);
    verify_fibration(&phi6c, &g6c, &b3c, &[], &[]).unwrap();
    // Ports: ring fibrations are even coverings.
    verify_covering(&phi6c, &g6c, &b3c, &[], &[]).unwrap();

    // Same base inputs (1, 2, 3); lifts are (1,2,3,1,2,3) on R_6 and
    // (1,2,3) on R_3 itself: equal frequencies, different multisets.
    let base_inits = PushSumState::<BigRational>::averaging(&[1.0, 2.0, 3.0]);
    check_lifting(
        &Isotropic(PushSum::<BigRational>::new()),
        &g6c,
        &b3c,
        &phi6c,
        base_inits,
        20,
    )
    .expect("no algorithm separates R_6(1,2,3,1,2,3) from R_3(1,2,3)");
}

/// Simple broadcast cannot even see frequencies: the star K_{1,3} and the
/// single edge K_2 have inputs with equal SUPPORT but different
/// frequencies, and a broadcast algorithm cannot separate... — the paper
/// handles this with more general fibrations; here we check the ring
/// version: R_2(a,b) vs R_4(a,b,a,b) under *gossip*, then confirm that
/// frequencies (3/4 vs 1/2) are invisible to any broadcast algorithm run
/// on fibration-related star networks.
#[test]
fn broadcast_gossip_lifts_and_forgets_multiplicity() {
    let (g, b, phi) = ring_fibration(4, 2);
    let (gc, bc, phic) = close_fibration(&phi, &g, &b);
    check_lifting(
        &Broadcast(SetGossip),
        &gc,
        &bc,
        &phic,
        SetGossip::initial(&[7, 9]),
        10,
    )
    .expect("gossip lifts");
    // Outputs on both networks are the same SET {7, 9}: the average
    // (8 on R_2's lift, 8 on R_4's) happens to agree here, but the
    // frequencies of a *third* network with support {7, 9} and different
    // frequencies also produce the same gossip output:
    let skewed = StaticGraph::new(know_your_audience::graph::generators::directed_ring(3));
    let mut exec = Execution::new(Broadcast(SetGossip), SetGossip::initial(&[7, 9, 9]));
    exec.drive(&skewed, RunConfig::rounds(5));
    assert_eq!(exec.outputs()[0], vec![7, 9]);
    // Identical output, different average: broadcast cannot compute the
    // average (Table 1, column 1 ceiling).
}

/// The sum stays invisible even with outdegree awareness AND a known
/// bound on n (Corollary 4.2's refinement): R_2 and R_4 both fit under
/// the bound N = 4, have equal frequencies, different sums — and the
/// full census algorithm produces the SAME census for both.
#[test]
fn census_is_identical_across_frequency_equivalent_networks() {
    let (g4, b2, phi) = ring_fibration(4, 2);
    let (g4c, b2c, _) = close_fibration(&phi, &g4, &b2);
    let values_small = [5u64, 11];
    let values_large = [5u64, 11, 5, 11];

    let mut small = Execution::new(
        Isotropic(CensusOutdegree),
        ViewState::initial(&values_small),
    );
    small.drive(&StaticGraph::new(b2c), RunConfig::rounds(12));
    let mut large = Execution::new(
        Isotropic(CensusOutdegree),
        ViewState::initial(&values_large),
    );
    large.drive(&StaticGraph::new(g4c), RunConfig::rounds(12));

    let census_small = small.outputs()[0].clone().expect("stabilized");
    let census_large = large.outputs()[0].clone().expect("stabilized");
    assert_eq!(census_small, census_large, "censuses indistinguishable");
    // Frequencies agree (both 1/2, 1/2); sums (16 vs 32) cannot both be
    // derived from the same census: multiset recovery without n or a
    // leader is impossible.
    assert_eq!(census_small.frequencies(), census_large.frequencies());
}

/// Lemma 3.1 holds on random lifted graphs, not just rings: property-run
/// over several seeds.
#[test]
fn lifting_lemma_on_random_lifts() {
    for seed in [11u64, 22, 33] {
        let base = know_your_audience::graph::generators::random_strongly_connected(3, 2, seed);
        // Equal fibre sizes make the projection outdegree-preserving on
        // average... not guaranteed; use the broadcast model, where any
        // fibration lifts.
        let (g, fibre_of) =
            know_your_audience::graph::generators::lift(&base, &[2, 2, 2], seed as usize % 3);
        let gc = g.with_self_loops();
        let bc = base.with_self_loops();
        // Recompute the projection on the closures via the centralized
        // machinery: fibre_of gives the vertex map; rebuild edge map by
        // recomputing the minimum-base... simpler: use check by running
        // gossip on both and comparing outputs fibrewise.
        let base_values: Vec<u64> = vec![3, 1, 4];
        let lifted_values: Vec<u64> = fibre_of.iter().map(|&f| base_values[f]).collect();
        let mut down = Execution::new(Broadcast(SetGossip), SetGossip::initial(&base_values));
        down.drive(&StaticGraph::new(bc), RunConfig::rounds(12));
        let mut up = Execution::new(Broadcast(SetGossip), SetGossip::initial(&lifted_values));
        up.drive(&StaticGraph::new(gc), RunConfig::rounds(12));
        for (v, &f) in fibre_of.iter().enumerate() {
            assert_eq!(up.outputs()[v], down.outputs()[f], "seed {seed} vertex {v}");
        }
    }
}

/// The distributed min-base algorithm cannot tell a graph from its lift:
/// the candidate bases coincide (that is exactly why frequencies are the
/// ceiling without centralized help).
#[test]
fn min_base_candidates_coincide_across_lift() {
    let (g6, b3, phi) = ring_fibration(6, 3);
    let (g6c, b3c, phic) = close_fibration(&phi, &g6, &b3);
    let base_values = [1u64, 2, 3];
    let lifted_values: Vec<u64> = (0..6).map(|v| base_values[v % 3]).collect();

    let mut down = Execution::new(
        Isotropic(MinBaseOutdegree),
        ViewState::initial(&base_values),
    );
    down.drive(&StaticGraph::new(b3c), RunConfig::rounds(14));
    let mut up = Execution::new(
        Isotropic(MinBaseOutdegree),
        ViewState::initial(&lifted_values),
    );
    up.drive(&StaticGraph::new(g6c), RunConfig::rounds(14));

    let cb_down = down.outputs()[0].clone().expect("stabilized");
    let cb_up = up.outputs()[0].clone().expect("stabilized");
    assert_eq!(cb_down, cb_up);
    let _ = phic;
}
