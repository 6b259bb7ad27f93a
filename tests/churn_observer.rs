//! Observer call-order under churn: membership transitions and fault
//! injection are distinct channels. An agent parked by a churn script is
//! *masked* — its edges vanish from the round graph, so no `on_message`
//! **and no `on_message_dropped`** fires for it — whereas a message lost
//! to the fault plan (drop or bounce off a crashed recipient) always
//! fires `on_message_dropped`. These tests pin the distinction on
//! faulted runs and pin the churned observer stream's equality across
//! thread counts.

use know_your_audience::algos::push_sum::{PushSum, PushSumState, SelfHealingPushSum};
use know_your_audience::graph::{generators, StaticGraph};
use know_your_audience::runtime::churn::{ChurnMasked, ChurnPlan};
use know_your_audience::runtime::faults::FaultPlan;
use know_your_audience::runtime::{Algorithm, Execution, Isotropic, Observer, RunConfig};
use proptest::prelude::*;

/// Records every observer hook as a rendered line, so streams can be
/// compared with one `assert_eq!` and filtered by prefix.
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

/// Parse the `round` and `src->dst` of a rendered `msg`/`drop` line.
fn parse_event(line: &str) -> (u64, usize, usize) {
    let mut it = line.split_whitespace();
    let _tag = it.next().unwrap();
    let round: u64 = it.next().unwrap().parse().unwrap();
    let (src, dst) = it.next().unwrap().split_once("->").unwrap();
    (round, src.parse().unwrap(), dst.parse().unwrap())
}

const PARKED: usize = 2;
const LEAVE: u64 = 4;
const REJOIN: u64 = 12;

fn churned_stack(
    n: usize,
) -> (
    ChurnMasked<StaticGraph>,
    know_your_audience::runtime::churn::Membership,
) {
    let g = generators::random_strongly_connected(n, n, 9).with_self_loops();
    let membership = ChurnPlan::new(9).leave(PARKED, LEAVE..REJOIN).membership(n);
    (
        ChurnMasked::new(StaticGraph::new(g), membership.clone()),
        membership,
    )
}

/// A churned run with a **quiescent** fault plan fires no
/// `on_message_dropped` at all: parking an agent masks its edges out of
/// the round graph rather than dropping in-flight messages, and the
/// rejoin transition is equally silent. During the absence window the
/// parked agent's only observed deliveries are its own self-loop (which
/// the mask preserves so its state recirculates, frozen); real-link
/// traffic resumes on rejoin.
#[test]
fn membership_transitions_never_fire_on_message_dropped() {
    let n = 7;
    let (stack, membership) = churned_stack(n);
    let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let fresh = PushSumState::averaging(&values);
    let reinit = |v: usize, _parked: &PushSumState| fresh[v];
    let mut obs = Recorder::default();
    let mut exec = Execution::new(Isotropic(SelfHealingPushSum), fresh.clone());
    let quiescent = FaultPlan::new(9);
    exec.drive(
        &stack,
        RunConfig::rounds(20)
            .membership(&membership, &reinit)
            .observer(&mut obs)
            .faults(&quiescent),
    );
    assert!(
        obs.events.iter().all(|e| !e.starts_with("drop")),
        "churn transitions leaked into on_message_dropped"
    );
    let mut absent_real_deliveries = 0u64;
    let mut absent_self_loops = 0u64;
    let mut rejoined_real_link = false;
    for e in &obs.events {
        if !e.starts_with("msg") {
            continue;
        }
        let (round, src, dst) = parse_event(e);
        let absent = (LEAVE..REJOIN).contains(&round);
        let touches_parked = src == PARKED || dst == PARKED;
        if absent && touches_parked {
            if src == dst {
                absent_self_loops += 1;
            } else {
                absent_real_deliveries += 1;
            }
        }
        if round >= REJOIN && touches_parked && src != dst {
            rejoined_real_link = true;
        }
    }
    assert_eq!(
        absent_real_deliveries, 0,
        "masked agent still exchanged messages over real links while parked"
    );
    assert_eq!(
        absent_self_loops,
        REJOIN - LEAVE,
        "the parked agent's self-loop recirculates every absent round"
    );
    assert!(rejoined_real_link, "real-link traffic resumes after rejoin");
}

/// With a drop plan stacked on the same churn script, every
/// `on_message_dropped` is attributable to the fault plan: it fires only
/// inside the plan's horizon, and never for an edge the membership has
/// already masked away (a message that was never sent cannot be
/// dropped).
#[test]
fn dropped_events_come_only_from_the_fault_plan() {
    let n = 7;
    let horizon = 16u64;
    let (stack, membership) = churned_stack(n);
    let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let fresh = PushSumState::averaging(&values);
    let reinit = |v: usize, _parked: &PushSumState| fresh[v];
    let mut obs = Recorder::default();
    let mut exec = Execution::new(Isotropic(SelfHealingPushSum), fresh.clone());
    let plan = FaultPlan::new(9).drop_links(0.4).until(horizon);
    let report = exec.drive(
        &stack,
        RunConfig::rounds(24)
            .membership(&membership, &reinit)
            .observer(&mut obs)
            .faults(&plan),
    );
    assert!(report.events.dropped > 0, "drop plan actually fired");
    let drops: Vec<(u64, usize, usize)> = obs
        .events
        .iter()
        .filter(|e| e.starts_with("drop"))
        .map(|e| parse_event(e))
        .collect();
    assert_eq!(drops.len() as u64, report.events.dropped);
    for &(round, src, dst) in &drops {
        assert!(round <= horizon, "drop after the plan's horizon");
        let absent = (LEAVE..REJOIN).contains(&round);
        assert!(
            !(absent && (src == PARKED || dst == PARKED)),
            "dropped a message on a membership-masked edge at round {round}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The churned observer stream — rejoin re-injections included — is
    /// identical at 1, 2, and 4 threads: same hooks, same order, same
    /// arguments, same states.
    #[test]
    fn churned_observer_streams_agree_across_thread_counts(
        n in 4usize..12,
        extra in 0usize..16,
        seed in 0u64..500,
        rounds in 1u64..16,
    ) {
        let g = generators::random_strongly_connected(n, extra, seed).with_self_loops();
        let membership = ChurnPlan::new(seed)
            .leave(n - 1, 2..6)
            .leave(0, 3..8)
            .membership(n);
        let stack = ChurnMasked::new(StaticGraph::new(g), membership.clone());
        let values: Vec<f64> = (0..n).map(|i| ((i as u64 * 31 + seed) % 67) as f64).collect();
        let fresh = PushSumState::averaging(&values);
        let reinit = |v: usize, _parked: &PushSumState| fresh[v];

        let mut baseline: Option<(Vec<String>, String)> = None;
        for threads in [1usize, 2, 4] {
            let mut obs = Recorder::default();
            let mut exec = Execution::new(Isotropic(PushSum), fresh.clone());
            exec.drive(
                &stack,
                RunConfig::rounds(rounds)
                    .threads(threads)
                    .membership(&membership, &reinit)
                    .observer(&mut obs),
            );
            let states = format!("{:?}", exec.states());
            match &baseline {
                None => baseline = Some((obs.events, states)),
                Some((base_events, base_states)) => {
                    prop_assert_eq!(
                        base_events, &obs.events,
                        "observer streams diverge at {} threads", threads
                    );
                    prop_assert_eq!(base_states, &states);
                }
            }
        }
    }
}
