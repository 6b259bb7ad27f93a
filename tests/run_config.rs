//! A configured [`Execution::drive`] is pure sugar over the explicit
//! round loop: each knob combination must leave the execution in the
//! *same state* and return the *same report* as the loop spelled out by
//! hand — `step`/`apply_rejoins` rounds, or an unmeasured run whose
//! distance trace is recorded by an observer and sealed with
//! [`CellReport::from_trace`]. Each test is named after the retired
//! `run*` spelling whose builder replacement it pins.

use kya_algos::push_sum::{PushSum, PushSumState, SelfHealingPushSum};
use kya_graph::{generators, DynamicGraph, StaticGraph};
use kya_runtime::churn::{ChurnMasked, ChurnPlan, Membership};
use kya_runtime::faults::FaultPlan;
use kya_runtime::metric::EuclideanMetric;
use kya_runtime::{
    Algorithm, CellReport, CountingObserver, Execution, Isotropic, ResidualObserver, RunConfig,
};

const N: usize = 8;
const ROUNDS: u64 = 12;

fn values() -> Vec<f64> {
    (0..N).map(|i| ((i * 37) % 101) as f64).collect()
}

fn avg() -> f64 {
    values().iter().sum::<f64>() / N as f64
}

fn net() -> StaticGraph {
    StaticGraph::new(generators::random_strongly_connected(N, N, 7))
}

fn fresh() -> Execution<Isotropic<PushSum>> {
    Execution::new(Isotropic(PushSum), PushSumState::averaging(&values()))
}

fn fresh_healing() -> Execution<Isotropic<SelfHealingPushSum>> {
    Execution::new(
        Isotropic(SelfHealingPushSum),
        PushSumState::averaging(&values()),
    )
}

fn plan() -> FaultPlan {
    FaultPlan::new(11).drop_links(0.2).until(ROUNDS / 2)
}

fn states<A: Algorithm>(exec: &Execution<A>) -> String {
    format!("{:?}", exec.states())
}

type Reinit<'a> = &'a dyn Fn(usize, &PushSumState) -> PushSumState;

/// The report a measured `drive` must return, rebuilt by hand: the same
/// run unmeasured, its per-round distances to the average recorded by a
/// [`ResidualObserver`] and sealed with [`CellReport::from_trace`].
fn by_hand<A>(
    exec: &mut Execution<A>,
    net: &dyn DynamicGraph,
    plan: Option<&FaultPlan>,
    churn: Option<(&Membership, Reinit<'_>)>,
) -> CellReport
where
    A: Algorithm<State = PushSumState, Output = f64> + Sync,
    A::Msg: Send + Sync,
{
    let mut residuals = ResidualObserver::new(EuclideanMetric, avg());
    let mut cfg = RunConfig::rounds(ROUNDS).observer(&mut residuals);
    if let Some(plan) = plan {
        cfg = cfg.faults(plan);
    }
    if let Some((membership, reinit)) = churn {
        cfg = cfg.membership(membership, reinit);
    }
    let unmeasured = exec.drive(net, cfg);
    let trace = residuals.residuals().to_vec();
    let last_fault = unmeasured.last_fault_round;
    CellReport::from_trace(0, trace, 1e-9, last_fault, unmeasured.events, None)
}

#[test]
fn run_matches_rounds_config() {
    let net = net();
    let mut old = fresh();
    for t in 1..=ROUNDS {
        old.step(&net.graph_ref(t));
    }
    let mut new = fresh();
    let report = new.drive(&net, RunConfig::rounds(ROUNDS));
    assert_eq!(states(&old), states(&new));
    assert_eq!(old.round(), new.round());
    assert_eq!(report.rounds_run, ROUNDS);
}

#[test]
fn run_observed_matches_observer_config() {
    let net = net();
    let mut plain = fresh();
    plain.drive(&net, RunConfig::rounds(ROUNDS));
    let mut new = fresh();
    let mut obs = CountingObserver::new();
    new.drive(&net, RunConfig::rounds(ROUNDS).observer(&mut obs));
    assert_eq!(states(&plain), states(&new), "observing never perturbs");
    let edges = net.underlying().edge_count() as u64;
    assert_eq!(obs.summary().rounds, ROUNDS);
    assert_eq!(
        obs.summary().messages + obs.summary().self_messages,
        ROUNDS * edges
    );
}

#[test]
fn run_until_matches_measure_config() {
    let net = net();
    let mut old = fresh();
    let r_old = by_hand(&mut old, &net, None, None);
    let mut new = fresh();
    let r_new = new.drive(
        &net,
        RunConfig::rounds(ROUNDS).measure(&EuclideanMetric, &avg(), 1e-9),
    );
    assert_eq!(r_old, r_new);
    assert_eq!(states(&old), states(&new));
}

#[test]
fn run_until_observed_matches_its_config() {
    let net = net();
    let mut old = fresh();
    let r_old = by_hand(&mut old, &net, None, None);
    let mut new = fresh();
    let mut obs = CountingObserver::new();
    let r_new = new.drive(
        &net,
        RunConfig::rounds(ROUNDS)
            .measure(&EuclideanMetric, &avg(), 1e-9)
            .observer(&mut obs),
    );
    assert_eq!(r_old, r_new);
    assert_eq!(obs.summary().rounds, ROUNDS);
}

#[test]
fn run_until_converged_matches_confirm_config() {
    let net = net();
    let full = fresh().drive(
        &net,
        RunConfig::rounds(4000).measure(&EuclideanMetric, &avg(), 1e-3),
    );
    let at = full.converged_at.expect("sanity: the cell converges");
    let mut new = fresh();
    let report = new.drive(
        &net,
        RunConfig::rounds(4000)
            .measure(&EuclideanMetric, &avg(), 1e-3)
            .confirm(50),
    );
    // The window only truncates the trace: same verdict, 50 rounds on.
    assert_eq!(report.converged_at, Some(at));
    assert_eq!(report.rounds_run, at + 50);
    assert_eq!(report.distances[..], full.distances[..(at + 50) as usize]);
    assert_eq!(new.round(), at + 50);
}

#[test]
fn run_until_converged_observed_matches_its_config() {
    let net = net();
    let target = avg();
    let cfg = || {
        RunConfig::rounds(4000)
            .measure(&EuclideanMetric, &target, 1e-3)
            .confirm(50)
    };
    let r_plain = fresh().drive(&net, cfg());
    let mut obs = CountingObserver::new();
    let r_obs = fresh().drive(&net, cfg().observer(&mut obs));
    assert_eq!(r_plain, r_obs);
    assert_eq!(obs.summary().rounds, r_obs.rounds_run);
}

#[test]
fn run_churned_matches_membership_config() {
    let membership = ChurnPlan::new(3).leave(1, 4..8).membership(N);
    let reinit = |_: usize, s: &PushSumState| *s;
    let stack = ChurnMasked::new(net(), membership.clone());
    let mut old = fresh();
    for t in 1..=ROUNDS {
        old.apply_rejoins(&membership, &reinit);
        old.step(&stack.graph_ref(t));
    }
    let mut new = fresh();
    new.drive(
        &stack,
        RunConfig::rounds(ROUNDS).membership(&membership, &reinit),
    );
    assert_eq!(states(&old), states(&new));
}

#[test]
fn faulty_run_matches_rounds_config() {
    let net = net();
    let plan = plan();
    // Faults are a pure function of the absolute round, so a run split
    // into one-round drives injects exactly the same pattern.
    let mut old = fresh_healing();
    for _ in 0..ROUNDS {
        old.drive(&net, RunConfig::rounds(1).faults(&plan));
    }
    let mut new = fresh_healing();
    let report = new.drive(&net, RunConfig::rounds(ROUNDS).faults(&plan));
    assert_eq!(states(&old), states(&new));
    assert!(report.events.dropped > 0, "sanity: the plan fires");
}

#[test]
fn run_with_recovery_matches_its_config() {
    let net = net();
    let plan = plan();
    let mass = |states: &[PushSumState]| {
        (states.iter().map(|s| s.y).sum::<f64>() - values().iter().sum::<f64>()).abs()
    };
    let mut old = fresh_healing();
    let mut r_old = by_hand(&mut old, &net, Some(&plan), None);
    r_old.mass_deficit = Some(mass(old.states()));
    let mut new = fresh_healing();
    let r_new = new.drive(
        &net,
        RunConfig::rounds(ROUNDS)
            .measure(&EuclideanMetric, &avg(), 1e-9)
            .invariant(&mass)
            .faults(&plan),
    );
    assert_eq!(r_old, r_new);
    assert_eq!(states(&old), states(&new));
}

#[test]
fn run_with_recovery_observed_matches_its_config() {
    let net = net();
    let plan = plan();
    let mut old = fresh_healing();
    let r_old = by_hand(&mut old, &net, Some(&plan), None);
    let mut new = fresh_healing();
    let mut obs = CountingObserver::new();
    let r_new = new.drive(
        &net,
        RunConfig::rounds(ROUNDS)
            .measure(&EuclideanMetric, &avg(), 1e-9)
            .observer(&mut obs)
            .faults(&plan),
    );
    assert_eq!(r_old, r_new);
    assert_eq!(obs.summary().dropped, r_new.events.dropped);
}

#[test]
fn run_with_recovery_churned_matches_its_config() {
    let membership = ChurnPlan::new(3).leave(2, 3..7).membership(N);
    let reinit = |_: usize, s: &PushSumState| *s;
    let stack = ChurnMasked::new(net(), membership.clone());
    let plan = plan();
    let mut old = fresh_healing();
    let r_old = by_hand(&mut old, &stack, Some(&plan), Some((&membership, &reinit)));
    let mut new = fresh_healing();
    let r_new = new.drive(
        &stack,
        RunConfig::rounds(ROUNDS)
            .membership(&membership, &reinit)
            .measure(&EuclideanMetric, &avg(), 1e-9)
            .faults(&plan),
    );
    assert_eq!(r_old, r_new);
    assert_eq!(states(&old), states(&new));
    assert!(r_new.last_fault_round >= membership.last_transition());
}
