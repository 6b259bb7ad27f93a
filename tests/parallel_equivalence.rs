//! `Execution`'s round is one semantics with many schedules: for every
//! algorithm in `kya_algos`, `drive` at 1, 2, 3 and 4 threads must drive
//! an [`Observer`] through an identical event stream (same hooks, same
//! order, same arguments — the round hooks render every state, so this
//! covers the per-round states bitwise) — with or without a fault plan,
//! which then must also report identical [`FaultEvents`]. Only sends and transitions are
//! sharded; the route, where observer calls and the fault stage live,
//! iterates agents and ports in one canonical order precisely so this
//! holds; this test pins it.

use kya_algos::frequency::{CensusOutdegree, CensusPorts, CensusSymmetric};
use kya_algos::gossip::SetGossip;
use kya_algos::metropolis::{FixedWeight, LazyMetropolis, Metropolis};
use kya_algos::min_base::{MinBaseBroadcast, MinBaseOutdegree, MinBasePorts, ViewState};
use kya_algos::push_sum::{PushSum, PushSumState, SelfHealingPushSum};
use kya_graph::StaticGraph;
use kya_harness::parse_graph;
use kya_runtime::faults::{FaultEvents, FaultPlan};
use kya_runtime::{Algorithm, Broadcast, Execution, Isotropic, Observer, RunConfig};

/// Records every observer hook as a rendered line, so two runs can be
/// compared with one `assert_eq!` regardless of state/message types.
#[derive(Default)]
struct Recorder {
    events: Vec<String>,
}

impl<A: Algorithm> Observer<A> for Recorder
where
    A::State: std::fmt::Debug,
    A::Msg: std::fmt::Debug,
{
    fn on_round_start(&mut self, round: u64, states: &[A::State]) {
        self.events.push(format!("start {round} {states:?}"));
    }

    fn on_message(&mut self, round: u64, src: usize, dst: usize, msg: &A::Msg) {
        self.events
            .push(format!("msg {round} {src}->{dst} {msg:?}"));
    }

    fn on_message_dropped(&mut self, round: u64, src: usize, dst: usize, msg: &A::Msg) {
        self.events
            .push(format!("drop {round} {src}->{dst} {msg:?}"));
    }

    fn on_round_end(&mut self, round: u64, _algo: &A, states: &[A::State]) {
        self.events.push(format!("end {round} {states:?}"));
    }
}

const ROUNDS: u64 = 5;

/// Drive every thread count and demand the sequential schedule's
/// observer stream and fault counters; returns them.
fn check<A, F>(make: F, label: &str, plan: Option<&FaultPlan>) -> (Vec<String>, FaultEvents)
where
    A: Algorithm + Sync,
    A::State: std::fmt::Debug + Send + Sync,
    A::Msg: std::fmt::Debug + Send + Sync,
    F: Fn() -> Execution<A>,
{
    // Bidirectional so the symmetric-model algorithms are in contract.
    let net = StaticGraph::new(parse_graph("biring:6").expect("grammar"));
    let schedule = |threads: usize| {
        let mut obs = Recorder::default();
        let mut cfg = RunConfig::rounds(ROUNDS)
            .threads(threads)
            .observer(&mut obs);
        if let Some(plan) = plan {
            cfg = cfg.faults(plan);
        }
        let events = make().drive(&net, cfg).events;
        (obs.events, events)
    };
    let base = schedule(1);
    for threads in [2, 3, 4] {
        assert_eq!(
            base,
            schedule(threads),
            "{label}: {threads} threads diverge"
        );
    }
    let starts = base.0.iter().filter(|e| e.starts_with("start")).count();
    assert_eq!(starts, ROUNDS as usize, "{label}");
    base
}

/// Every algorithm of `kya_algos`, each run through `check`. A crashed
/// agent's view falls a round behind its neighbours', which the
/// view-based algorithms reject, so they run under `views_plan`.
fn every_algorithm(
    views_plan: Option<&FaultPlan>,
    plan: Option<&FaultPlan>,
) -> Vec<(Vec<String>, FaultEvents)> {
    let values: [u64; 6] = [3, 1, 4, 1, 5, 9];
    let floats: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    let views = || ViewState::initial(&values);
    let sums = || PushSumState::averaging(&floats);
    vec![
        check(
            || Execution::new(Broadcast(MinBaseBroadcast), views()),
            "MinBaseBroadcast",
            views_plan,
        ),
        check(
            || Execution::new(Isotropic(MinBaseOutdegree), views()),
            "MinBaseOutdegree",
            views_plan,
        ),
        check(
            || Execution::new(MinBasePorts, views()),
            "MinBasePorts",
            views_plan,
        ),
        check(
            || Execution::new(Isotropic(CensusOutdegree), views()),
            "CensusOutdegree",
            views_plan,
        ),
        check(
            || Execution::new(Broadcast(CensusSymmetric), views()),
            "CensusSymmetric",
            views_plan,
        ),
        check(
            || Execution::new(CensusPorts, views()),
            "CensusPorts",
            views_plan,
        ),
        check(
            || Execution::new(Broadcast(SetGossip), SetGossip::initial(&values)),
            "SetGossip",
            plan,
        ),
        check(
            || Execution::new(Isotropic(PushSum), sums()),
            "PushSum",
            plan,
        ),
        check(
            || Execution::new(Isotropic(SelfHealingPushSum), sums()),
            "SelfHealingPushSum",
            plan,
        ),
        check(
            || Execution::new(Isotropic(Metropolis), floats.clone()),
            "Metropolis",
            plan,
        ),
        check(
            || Execution::new(Isotropic(LazyMetropolis), floats.clone()),
            "LazyMetropolis",
            plan,
        ),
        check(
            || Execution::new(Broadcast(FixedWeight::new(6)), floats.clone()),
            "FixedWeight",
            plan,
        ),
    ]
}

#[test]
fn every_algorithm_agrees_between_schedules() {
    let edges = parse_graph("biring:6")
        .expect("grammar")
        .with_self_loops()
        .edge_count();
    for (events, faults) in every_algorithm(None, None) {
        // Sanity: the streams are non-trivial — one delivery per edge
        // per round — and nothing was injected.
        let msgs = events.iter().filter(|e| e.starts_with("msg")).count();
        assert_eq!(msgs, ROUNDS as usize * edges, "one event per delivery");
        assert_eq!(faults, FaultEvents::default());
    }
}

/// Non-quiescent plans — drops and duplications, plus a crash window
/// where the algorithm admits one — run at any thread count with the
/// same states, fault counters and observer stream (drops included) as
/// the sequential schedule.
#[test]
fn faulted_schedules_agree_across_thread_counts() {
    let lossy = FaultPlan::new(7).drop_links(0.3).duplicate(0.2);
    let crashing = lossy.clone().crash(2, 2..4);
    let runs = every_algorithm(Some(&lossy), Some(&crashing));
    for (events, faults) in &runs {
        assert!(faults.dropped > 0 && faults.duplicated > 0, "{faults:?}");
        let drops = events.iter().filter(|e| e.starts_with("drop")).count() as u64;
        assert_eq!(drops, faults.dropped + faults.bounced_to_crashed);
    }
    let crashed = runs
        .iter()
        .filter(|(_, f)| f.crashed_rounds == 2 && f.bounced_to_crashed > 0)
        .count();
    assert_eq!(crashed, 6, "every non-view algorithm met the crash window");
}
