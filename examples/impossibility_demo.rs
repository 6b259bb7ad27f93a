//! The impossibility engine, live: why no anonymous algorithm can compute
//! the sum (§3–4.1).
//!
//! Run with `cargo run --example impossibility_demo`.
//!
//! The ring R_4 collapses onto R_2 by a fibration. Give R_2 the inputs
//! (1, 3) and R_4 the inputs (1, 3, 1, 3): equal frequencies, different
//! sums (4 vs 8). The Lifting Lemma forces EVERY algorithm — we
//! demonstrate with exact Push-Sum and with gossip — to behave
//! identically on both networks, so no output can reflect the sum.

use know_your_audience::algos::gossip::SetGossip;
use know_your_audience::algos::lifting::{check_lifting, close_fibration, ring_fibration};
use know_your_audience::algos::push_sum::{PushSum, PushSumState};
use know_your_audience::arith::BigRational;
use know_your_audience::fibration::verify_fibration;
use know_your_audience::graph::StaticGraph;
use know_your_audience::runtime::{Broadcast, Execution, Isotropic, RunConfig};

fn main() {
    let (g, b, phi) = ring_fibration(4, 2);
    let (gc, bc, phic) = close_fibration(&phi, &g, &b);
    verify_fibration(&phic, &gc, &bc, &[], &[]).expect("R_4 -> R_2 is a fibration");
    println!(
        "fibration R_4 -> R_2 verified (vertex map {:?})",
        phic.vertex_map
    );

    // 1. The Lifting Lemma holds for gossip...
    check_lifting(
        &Broadcast(SetGossip),
        &gc,
        &bc,
        &phic,
        SetGossip::initial(&[1, 3]),
        12,
    )
    .expect("lifting lemma (gossip)");
    println!("lifting lemma verified for gossip over 12 rounds");

    // 2. ...and for exact Push-Sum (outdegree awareness: the ring
    // fibration preserves outdegrees).
    let base_inits = PushSumState::<BigRational>::averaging(&[1.0, 3.0]);
    check_lifting(
        &Isotropic(PushSum::<BigRational>::new()),
        &gc,
        &bc,
        &phic,
        base_inits.clone(),
        12,
    )
    .expect("lifting lemma (push-sum)");
    println!("lifting lemma verified for exact Push-Sum over 12 rounds");

    // 3. Consequence: the two networks are output-indistinguishable.
    let lifted = phic.lift_valuation(&base_inits);
    let mut small = Execution::new(Isotropic(PushSum::<BigRational>::new()), base_inits);
    let mut large = Execution::new(Isotropic(PushSum::<BigRational>::new()), lifted);
    small.drive(&StaticGraph::new(bc), RunConfig::rounds(30));
    large.drive(&StaticGraph::new(gc), RunConfig::rounds(30));

    println!("\nafter 30 rounds:");
    println!(
        "  R_2, inputs (1, 3):        sum = 4, outputs {:?}",
        small.outputs()
    );
    println!(
        "  R_4, inputs (1, 3, 1, 3):  sum = 8, outputs {:?}",
        large.outputs()
    );
    for v in 0..4 {
        assert_eq!(large.outputs()[v], small.outputs()[v % 2]);
    }
    println!(
        "\noutputs agree fibrewise — an algorithm claiming to compute the \
         sum would have to output 4 and 8 simultaneously. The average \
         (1 + 3)/2 = 2, being frequency-based, is what both executions \
         converge to."
    );
}
