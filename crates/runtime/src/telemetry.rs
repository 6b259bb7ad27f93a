//! Round-level observers: per-round counters, residual series, and
//! NDJSON traces for any [`Execution`](crate::Execution).
//!
//! The paper's quantitative claims are *rates* — Push-Sum's geometric
//! convergence (Theorem 5.2) and the ergodic-coefficient bounds of
//! §5.2–5.3 speak about per-round residual decay — yet a bare measured
//! `drive` only keeps the distance trace. An [`Observer`] hooks into
//! the executor's round structure and sees every round boundary and
//! every delivered message, turning an execution into a measured one:
//!
//! - [`NullObserver`] — the zero-cost default. `step`, `step_parallel`
//!   and an unobserved `drive` run the executor's one round function with
//!   a `NullObserver`; monomorphization erases the empty hooks entirely
//!   (`tests/telemetry.rs` pins the unobserved round against an inline
//!   baseline).
//! - [`CountingObserver`] — messages delivered (split into self-loop and
//!   real-link traffic), payload bytes, fault-dropped messages, and peak
//!   state size, summarized as a [`CountSummary`].
//! - [`ResidualObserver`] — the per-round worst-case distance of the
//!   outputs from a target under a chosen [`Metric`]: the measured
//!   decay-rate series behind the F1/F4 tables.
//! - [`TraceSink`] — one [`RoundEvent`] per round (counters plus an
//!   optional residual), buffered with a stable serde schema and
//!   rendered as NDJSON.
//!
//! Payload and state sizes use the `Debug` rendering's byte length as a
//! deterministic, dependency-free proxy for serialized size: the repo
//! has no wire format, and `Debug` is the one encoding every `Msg` and
//! `State` already carries. The proxy is documented, stable across runs,
//! and only ever computed by opt-in observers.

use crate::algorithm::Algorithm;
use crate::metric::{max_distance, Metric};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Round-scoped hooks driven by the executors.
///
/// Every hook has an empty default body, so an observer implements only
/// what it measures. Within one round the executor guarantees the call
/// order `on_round_start` → `on_message`/`on_message_dropped` (one call
/// per message, in the deterministic routing order every round shares,
/// at any thread count) → `on_round_end`; `on_converged` fires at most
/// once per measuring run, after the report is sealed.
pub trait Observer<A: Algorithm> {
    /// A round began: `round` is the 1-based round number about to
    /// execute, `states` the configuration it starts from.
    fn on_round_start(&mut self, round: u64, states: &[A::State]) {
        let _ = (round, states);
    }

    /// A message was delivered from `src` to `dst` (`src == dst` is the
    /// self-loop). A duplicated message fires once per delivered copy.
    fn on_message(&mut self, round: u64, src: usize, dst: usize, msg: &A::Msg) {
        let _ = (round, src, dst, msg);
    }

    /// A message was lost to fault injection (dropped in flight or
    /// bounced off a crashed recipient) — fired only by runs with a
    /// [`RunConfig::faults`](crate::RunConfig::faults) plan.
    fn on_message_dropped(&mut self, round: u64, src: usize, dst: usize, msg: &A::Msg) {
        let _ = (round, src, dst, msg);
    }

    /// A round completed: `states` is the configuration after every
    /// transition; `algo` allows output projection.
    fn on_round_end(&mut self, round: u64, algo: &A, states: &[A::State]) {
        let _ = (round, algo, states);
    }

    /// A measuring `drive` determined that the outputs
    /// converged at the end of `round` with final distance
    /// `final_distance`.
    fn on_converged(&mut self, round: u64, final_distance: f64) {
        let _ = (round, final_distance);
    }
}

// Forwarding impl so a `&mut O` can be handed on wherever an
// `O: Observer<A>` is expected (e.g. a borrowed observer re-lent to a
// `RunConfig`).
impl<A: Algorithm, O: Observer<A> + ?Sized> Observer<A> for &mut O {
    fn on_round_start(&mut self, round: u64, states: &[A::State]) {
        (**self).on_round_start(round, states);
    }

    fn on_message(&mut self, round: u64, src: usize, dst: usize, msg: &A::Msg) {
        (**self).on_message(round, src, dst, msg);
    }

    fn on_message_dropped(&mut self, round: u64, src: usize, dst: usize, msg: &A::Msg) {
        (**self).on_message_dropped(round, src, dst, msg);
    }

    fn on_round_end(&mut self, round: u64, algo: &A, states: &[A::State]) {
        (**self).on_round_end(round, algo, states);
    }

    fn on_converged(&mut self, round: u64, final_distance: f64) {
        (**self).on_converged(round, final_distance);
    }
}

/// The zero-cost default observer: every hook is the empty default.
///
/// `Execution::step` runs the executor's round with a `NullObserver`;
/// the generic instantiation compiles the hooks away.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullObserver;

impl<A: Algorithm> Observer<A> for NullObserver {}

/// Flat counters accumulated by [`CountingObserver`] and [`TraceSink`].
///
/// All sizes are `Debug`-rendering byte lengths (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CountSummary {
    /// Rounds observed (`on_round_end` calls).
    pub rounds: u64,
    /// Messages delivered over real links (`src != dst`).
    pub messages: u64,
    /// Messages delivered over self-loops (`src == dst`).
    pub self_messages: u64,
    /// Payload bytes of every delivered message, self-loops included.
    pub payload_bytes: u64,
    /// Messages lost to fault injection (drops and bounces).
    pub dropped: u64,
    /// Largest single-agent state seen at any round end, in bytes.
    pub peak_state_bytes: u64,
}

/// Byte length of a value's `Debug` rendering, reusing `buf`.
fn debug_len(buf: &mut String, value: &impl std::fmt::Debug) -> u64 {
    buf.clear();
    let _ = write!(buf, "{value:?}");
    buf.len() as u64
}

/// Counts traffic and state growth: messages sent/received per round,
/// payload bytes, fault-dropped messages, and the peak state size.
#[derive(Clone, Debug, Default)]
pub struct CountingObserver {
    summary: CountSummary,
    buf: String,
}

impl CountingObserver {
    /// A fresh counter.
    pub fn new() -> CountingObserver {
        CountingObserver::default()
    }

    /// The counters accumulated so far.
    pub fn summary(&self) -> CountSummary {
        self.summary
    }
}

impl<A: Algorithm> Observer<A> for CountingObserver {
    fn on_message(&mut self, _round: u64, src: usize, dst: usize, msg: &A::Msg) {
        if src == dst {
            self.summary.self_messages += 1;
        } else {
            self.summary.messages += 1;
        }
        self.summary.payload_bytes += debug_len(&mut self.buf, msg);
    }

    fn on_message_dropped(&mut self, _round: u64, _src: usize, _dst: usize, _msg: &A::Msg) {
        self.summary.dropped += 1;
    }

    fn on_round_end(&mut self, _round: u64, _algo: &A, states: &[A::State]) {
        self.summary.rounds += 1;
        for s in states {
            let bytes = debug_len(&mut self.buf, s);
            self.summary.peak_state_bytes = self.summary.peak_state_bytes.max(bytes);
        }
    }
}

/// Records the per-round worst-case distance of the outputs from a
/// target — the measured decay-rate series of Theorem 5.2.
#[derive(Clone, Debug)]
pub struct ResidualObserver<M, T> {
    metric: M,
    target: T,
    residuals: Vec<f64>,
}

impl<M, T> ResidualObserver<M, T> {
    /// Measure distances to `target` under `metric`.
    pub fn new(metric: M, target: T) -> ResidualObserver<M, T> {
        ResidualObserver {
            metric,
            target,
            residuals: Vec::new(),
        }
    }

    /// The residual at the end of each observed round, in order.
    pub fn residuals(&self) -> &[f64] {
        &self.residuals
    }

    /// Per-round decay rates `r_{t+1} / r_t` (empty with fewer than two
    /// rounds; a ratio is skipped when its denominator is zero).
    pub fn decay_rates(&self) -> Vec<f64> {
        self.residuals
            .windows(2)
            .filter(|w| w[0] != 0.0)
            .map(|w| w[1] / w[0])
            .collect()
    }
}

impl<A, M> Observer<A> for ResidualObserver<M, A::Output>
where
    A: Algorithm,
    M: Metric<A::Output>,
{
    fn on_round_end(&mut self, _round: u64, algo: &A, states: &[A::State]) {
        let outputs: Vec<A::Output> = states.iter().map(|s| algo.output(s)).collect();
        self.residuals
            .push(max_distance(&self.metric, &outputs, &self.target));
    }
}

/// One row of a trace: the counters of a single round, plus the residual
/// when the sink was built with a metric.
///
/// Serializes with a stable field order (`round`, `messages`,
/// `self_messages`, `payload_bytes`, `dropped`, `residual`) — the schema
/// the CI trace-determinism job diffs byte for byte.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RoundEvent {
    /// The 1-based round number.
    pub round: u64,
    /// Messages delivered over real links this round.
    pub messages: u64,
    /// Messages delivered over self-loops this round.
    pub self_messages: u64,
    /// Payload bytes delivered this round (self-loops included).
    pub payload_bytes: u64,
    /// Messages lost to fault injection this round.
    pub dropped: u64,
    /// Worst-case distance from the target at the round's end, when a
    /// residual metric was attached.
    pub residual: Option<f64>,
}

impl RoundEvent {
    fn empty(round: u64) -> RoundEvent {
        RoundEvent {
            round,
            messages: 0,
            self_messages: 0,
            payload_bytes: 0,
            dropped: 0,
            residual: None,
        }
    }
}

/// Type of the optional residual computation a [`TraceSink`] carries.
type ResidualFn<A> = Box<dyn FnMut(&A, &[<A as Algorithm>::State]) -> f64>;

/// Buffers one [`RoundEvent`] per round and renders them as NDJSON; also
/// accumulates the same [`CountSummary`] as a [`CountingObserver`], so a
/// traced cell needs a single observer.
pub struct TraceSink<A: Algorithm> {
    events: Vec<RoundEvent>,
    current: Option<RoundEvent>,
    summary: CountSummary,
    buf: String,
    residual: Option<ResidualFn<A>>,
}

impl<A: Algorithm> Default for TraceSink<A> {
    fn default() -> TraceSink<A> {
        TraceSink::new()
    }
}

impl<A: Algorithm> TraceSink<A> {
    /// A sink recording counters only (`residual` stays `null`).
    pub fn new() -> TraceSink<A> {
        TraceSink {
            events: Vec::new(),
            current: None,
            summary: CountSummary::default(),
            buf: String::new(),
            residual: None,
        }
    }

    /// A sink that additionally records the per-round worst-case
    /// distance of the outputs from `target` under `metric`.
    pub fn with_residual<M>(metric: M, target: A::Output) -> TraceSink<A>
    where
        M: Metric<A::Output> + 'static,
        A::Output: 'static,
    {
        let mut sink = TraceSink::new();
        sink.residual = Some(Box::new(move |algo: &A, states: &[A::State]| {
            let outputs: Vec<A::Output> = states.iter().map(|s| algo.output(s)).collect();
            max_distance(&metric, &outputs, &target)
        }));
        sink
    }

    /// The buffered rounds so far (completed rounds only).
    pub fn events(&self) -> &[RoundEvent] {
        &self.events
    }

    /// The counters accumulated so far.
    pub fn summary(&self) -> CountSummary {
        self.summary
    }

    /// Consume the sink: buffered events plus the final counters.
    pub fn finish(self) -> (Vec<RoundEvent>, CountSummary) {
        (self.events, self.summary)
    }

    /// One compact JSON object per round, in round order.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_value().to_json());
            out.push('\n');
        }
        out
    }

    fn current_mut(&mut self, round: u64) -> &mut RoundEvent {
        self.current.get_or_insert_with(|| RoundEvent::empty(round))
    }
}

impl<A: Algorithm> Observer<A> for TraceSink<A> {
    fn on_round_start(&mut self, round: u64, _states: &[A::State]) {
        self.current = Some(RoundEvent::empty(round));
    }

    fn on_message(&mut self, round: u64, src: usize, dst: usize, msg: &A::Msg) {
        let bytes = debug_len(&mut self.buf, msg);
        let is_self = src == dst;
        let e = self.current_mut(round);
        if is_self {
            e.self_messages += 1;
        } else {
            e.messages += 1;
        }
        e.payload_bytes += bytes;
        if is_self {
            self.summary.self_messages += 1;
        } else {
            self.summary.messages += 1;
        }
        self.summary.payload_bytes += bytes;
    }

    fn on_message_dropped(&mut self, round: u64, _src: usize, _dst: usize, _msg: &A::Msg) {
        self.current_mut(round).dropped += 1;
        self.summary.dropped += 1;
    }

    fn on_round_end(&mut self, round: u64, algo: &A, states: &[A::State]) {
        let mut e = self
            .current
            .take()
            .unwrap_or_else(|| RoundEvent::empty(round));
        if let Some(f) = self.residual.as_mut() {
            e.residual = Some(f(algo, states));
        }
        self.summary.rounds += 1;
        for s in states {
            let bytes = debug_len(&mut self.buf, s);
            self.summary.peak_state_bytes = self.summary.peak_state_bytes.max(bytes);
        }
        self.events.push(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{Broadcast, BroadcastAlgorithm};
    use crate::metric::{DiscreteMetric, EuclideanMetric};
    use crate::{Execution, RunConfig};
    use kya_graph::{generators, StaticGraph};

    /// Flood the maximum value.
    #[derive(Clone)]
    struct MaxFlood;
    impl BroadcastAlgorithm for MaxFlood {
        type State = u32;
        type Msg = u32;
        type Output = u32;
        fn message(&self, state: &u32) -> u32 {
            *state
        }
        fn transition(&self, state: &u32, inbox: &[u32]) -> u32 {
            inbox.iter().copied().max().unwrap_or(*state).max(*state)
        }
        fn output(&self, state: &u32) -> u32 {
            *state
        }
    }

    #[test]
    fn counting_observer_counts_ring_traffic() {
        // Directed ring with self-loops: n real links + n self-loops per
        // round.
        let net = StaticGraph::new(generators::directed_ring(5));
        let mut exec = Execution::new(Broadcast(MaxFlood), vec![1, 2, 3, 4, 9]);
        let mut obs = CountingObserver::new();
        exec.drive(&net, RunConfig::rounds(4).observer(&mut obs));
        let s = obs.summary();
        assert_eq!(s.rounds, 4);
        assert_eq!(s.messages, 4 * 5);
        assert_eq!(s.self_messages, 4 * 5);
        assert_eq!(s.dropped, 0);
        // Every u32 here renders as one digit: 2 × 5 msgs × 1 byte/round.
        assert_eq!(s.payload_bytes, 4 * 10);
        assert_eq!(s.peak_state_bytes, 1);
    }

    #[test]
    fn residual_observer_tracks_flood_distance() {
        let net = StaticGraph::new(generators::directed_ring(4));
        let mut exec = Execution::new(Broadcast(MaxFlood), vec![9, 0, 0, 0]);
        let mut obs = ResidualObserver::new(DiscreteMetric, 9u32);
        let report = exec.drive(
            &net,
            RunConfig::rounds(6)
                .measure(&DiscreteMetric, &9, 0.0)
                .observer(&mut obs),
        );
        assert_eq!(obs.residuals().len(), 6);
        // The flood covers the ring in diameter = 3 rounds.
        assert_eq!(obs.residuals()[..4], [1.0, 1.0, 0.0, 0.0]);
        assert_eq!(report.converged_at, Some(3));
        // Residuals are exactly the report's distance trace.
        assert_eq!(obs.residuals(), report.distances.as_slice());
    }

    #[test]
    fn decay_rates_skip_zero_denominators() {
        let mut obs: ResidualObserver<EuclideanMetric, f64> =
            ResidualObserver::new(EuclideanMetric, 0.0);
        obs.residuals = vec![4.0, 2.0, 0.0, 0.0];
        assert_eq!(obs.decay_rates(), vec![0.5, 0.0]);
    }

    #[test]
    fn trace_sink_buffers_rounds_with_residuals() {
        let net = StaticGraph::new(generators::directed_ring(4));
        let mut exec = Execution::new(Broadcast(MaxFlood), vec![9, 0, 0, 0]);
        let mut sink = TraceSink::with_residual(DiscreteMetric, 9u32);
        let report = exec.drive(
            &net,
            RunConfig::rounds(5)
                .measure(&DiscreteMetric, &9, 0.0)
                .observer(&mut sink),
        );
        assert_eq!(sink.events().len(), 5);
        for (i, e) in sink.events().iter().enumerate() {
            assert_eq!(e.round, i as u64 + 1);
            assert_eq!(e.messages, 4);
            assert_eq!(e.self_messages, 4);
            assert_eq!(e.residual, Some(report.distances[i]));
        }
        let nd = sink.to_ndjson();
        assert_eq!(nd.lines().count(), 5);
        assert!(
            nd.lines().next().unwrap().starts_with("{\"round\":1,"),
            "{nd}"
        );
        let (events, summary) = sink.finish();
        assert_eq!(summary.rounds, 5);
        assert_eq!(summary.messages, 5 * 4);
        assert_eq!(events.len(), 5);
    }

    #[test]
    fn round_event_roundtrips_through_json() {
        let e = RoundEvent {
            round: 7,
            messages: 12,
            self_messages: 6,
            payload_bytes: 99,
            dropped: 2,
            residual: Some(0.125),
        };
        let json = serde::to_json_string(&e);
        let back: RoundEvent = serde::from_json_str(&json).expect("parses");
        assert_eq!(back, e);
        let none = RoundEvent::empty(1);
        let json = serde::to_json_string(&none);
        assert!(json.contains("\"residual\":null"), "{json}");
        let back: RoundEvent = serde::from_json_str(&json).expect("parses");
        assert_eq!(back, none);
    }

    #[test]
    fn count_summary_roundtrips_through_json() {
        let s = CountSummary {
            rounds: 3,
            messages: 10,
            self_messages: 5,
            payload_bytes: 42,
            dropped: 1,
            peak_state_bytes: 8,
        };
        let json = serde::to_json_string(&s);
        let back: CountSummary = serde::from_json_str(&json).expect("parses");
        assert_eq!(back, s);
    }
}
