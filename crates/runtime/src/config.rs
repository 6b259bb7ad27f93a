//! The run configuration consumed by
//! [`Execution::drive`](crate::Execution::drive), the executor's single
//! run entry point.
//!
//! [`RunConfig`] describes a run as orthogonal knobs:
//!
//! - [`rounds`](RunConfig::rounds) — the round budget (the only
//!   mandatory knob, and the constructor);
//! - [`threads`](RunConfig::threads) — shard each round's sends and
//!   transitions over contiguous agent ranges (bit-identical to
//!   sequential at any count);
//! - [`observer`](RunConfig::observer) — attach an [`Observer`] to the
//!   round/message stream;
//! - [`membership`](RunConfig::membership) — churn: apply the
//!   membership's rejoin policy before every round;
//! - [`faults`](RunConfig::faults) — inject a [`FaultPlan`] at the
//!   message level, in the route;
//! - [`measure`](RunConfig::measure) /
//!   [`measure_with`](RunConfig::measure_with) — record a per-round
//!   distance trace and judge ε-convergence post hoc;
//! - [`confirm`](RunConfig::confirm) — stop early after the outputs
//!   stay in the ε-ball this many consecutive rounds;
//! - [`invariant`](RunConfig::invariant) — evaluate a mass functional
//!   over the final states into the report;
//! - [`bandwidth`](RunConfig::bandwidth) — meter channel traffic under
//!   a bit cap.

use crate::algorithm::Algorithm;
use crate::bandwidth::{BandwidthCap, ByteLedger};
use crate::churn::Membership;
use crate::faults::FaultPlan;
use crate::metric::{EuclideanMetric, Metric};
use crate::telemetry::Observer;

/// A distance functional over the whole output vector, as installed by
/// [`RunConfig::measure`] / [`RunConfig::measure_with`].
pub type DistanceFn<'a, O> = Box<dyn Fn(&[O]) -> f64 + 'a>;

/// A mass functional over the final states ([`RunConfig::invariant`]).
pub type InvariantFn<'a, S> = &'a dyn Fn(&[S]) -> f64;

/// Declarative description of one `drive` call: budget, parallelism,
/// observation, churn, faults, and measurement. See the module docs.
pub struct RunConfig<'a, A: Algorithm> {
    pub(crate) rounds: u64,
    pub(crate) threads: usize,
    pub(crate) observer: Option<&'a mut dyn Observer<A>>,
    #[allow(clippy::type_complexity)] // one borrowed pair, named inline
    pub(crate) membership: Option<(&'a Membership, &'a dyn Fn(usize, &A::State) -> A::State)>,
    pub(crate) dist: Option<DistanceFn<'a, A::Output>>,
    pub(crate) eps: f64,
    pub(crate) confirm: Option<u64>,
    pub(crate) invariant: Option<InvariantFn<'a, A::State>>,
    pub(crate) bandwidth: Option<(BandwidthCap, &'a ByteLedger)>,
    pub(crate) faults: Option<&'a FaultPlan>,
}

impl<'a, A: Algorithm> RunConfig<'a, A> {
    /// A plain run of `rounds` rounds: sequential, unobserved,
    /// unmeasured. Every other knob is added with a builder call.
    pub fn rounds(rounds: u64) -> RunConfig<'a, A> {
        RunConfig {
            rounds,
            threads: 1,
            observer: None,
            membership: None,
            dist: None,
            eps: 0.0,
            confirm: None,
            invariant: None,
            bandwidth: None,
            faults: None,
        }
    }

    /// Shard each round's sends and transitions across `threads`
    /// workers over contiguous agent ranges; the route between them
    /// (observer and fault stage included) stays sequential.
    /// Bit-identical to `threads = 1` at any count, faulted or not.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Attach an [`Observer`] to the run: it sees every round boundary
    /// and every delivered message, and `on_converged` fires once the
    /// report is sealed (measured runs only).
    pub fn observer(mut self, obs: &'a mut dyn Observer<A>) -> Self {
        self.observer = Some(obs);
        self
    }

    /// Run under churn: before every round, apply `membership`'s rejoin
    /// policy — under [`ReinjectPolicy::Reset`](crate::churn::ReinjectPolicy)
    /// each rejoining agent's parked state is replaced by
    /// `reinit(agent, &parked)`. The network is still expected to mask
    /// absent agents (wrap it in [`ChurnMasked`](crate::churn::ChurnMasked)).
    pub fn membership(
        mut self,
        membership: &'a Membership,
        reinit: &'a dyn Fn(usize, &A::State) -> A::State,
    ) -> Self {
        self.membership = Some((membership, reinit));
        self
    }

    /// Inject `plan` at the message level: crashed agents freeze, and
    /// in-flight messages are dropped, duplicated, or bounced off
    /// crashed recipients per the plan's coins; bounced messages return
    /// to their sender's [`Algorithm::reabsorb`]. Injected faults are
    /// counted in the report's `events` and delay its convergence
    /// verdict (see [`Execution::drive`](crate::Execution::drive)).
    /// The graph-level reading of the same plan is
    /// [`FaultyNetwork`](crate::faults::FaultyNetwork).
    pub fn faults(mut self, plan: &'a FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Measure the worst-case distance of the outputs from `target`
    /// under `metric` each round, and judge convergence at tolerance
    /// `eps` post hoc over the whole trace (§2.3). A non-finite
    /// distance ends the run at once with `diverged_at` set.
    pub fn measure<M: Metric<A::Output>>(
        self,
        metric: &'a M,
        target: &'a A::Output,
        eps: f64,
    ) -> Self {
        self.measure_with(
            move |outputs| crate::metric::max_distance(metric, outputs, target),
            eps,
        )
    }

    /// Like [`RunConfig::measure`], with an arbitrary distance
    /// functional over the output vector (e.g. per-agent targets).
    pub fn measure_with(mut self, dist: impl Fn(&[A::Output]) -> f64 + 'a, eps: f64) -> Self {
        self.dist = Some(Box::new(dist));
        self.eps = eps;
        self
    }

    /// Stop early once the measured distance has stayed within the
    /// ε-ball for `confirm` consecutive rounds (the budget-saving sweep
    /// variant). Only meaningful together with a `measure*` knob.
    pub fn confirm(mut self, confirm: u64) -> Self {
        self.confirm = Some(confirm);
        self
    }

    /// Evaluate `f` over the final states and record it as the report's
    /// `mass_deficit` — the conservation ledger of the fault and churn
    /// oracles.
    pub fn invariant(mut self, f: &'a dyn Fn(&[A::State]) -> f64) -> Self {
        self.invariant = Some(f);
        self
    }

    /// Meter the run under a bandwidth cap: each round, `ledger` is
    /// charged `edges × cap.bits_per_edge()` bits of channel traffic.
    ///
    /// Metering only — the cap is *enforced* structurally by running a
    /// quantized algorithm whose codewords fit the cap (see
    /// `kya_runtime::bandwidth`); truncating messages in the executor
    /// would silently corrupt state. [`BandwidthCap::Unlimited`] makes
    /// this rung a pure observer: the run is bitwise identical to one
    /// without it.
    pub fn bandwidth(mut self, cap: BandwidthCap, ledger: &'a ByteLedger) -> Self {
        self.bandwidth = Some((cap, ledger));
        self
    }
}

/// [`RunConfig`]'s flat twin, consumed by
/// [`FlatExecution::drive`](crate::FlatExecution::drive).
///
/// The flat executor's outputs are always `f64` and it runs on static
/// graphs without observers or churn, so only the measurement knobs
/// carry over: a round budget, a thread count, an optional distance
/// functional with tolerance `eps` (judged post hoc over the whole
/// trace, exactly like the boxed loop), and confirmed early stopping.
/// Probed rounds go through
/// [`FlatExecution::step_probed`](crate::FlatExecution::step_probed)
/// and [`run_probed`](crate::FlatExecution::run_probed).
pub struct FlatRunConfig<'a> {
    pub(crate) rounds: u64,
    pub(crate) threads: usize,
    pub(crate) dist: Option<DistanceFn<'a, f64>>,
    pub(crate) eps: f64,
    pub(crate) confirm: Option<u64>,
    pub(crate) bandwidth: Option<(BandwidthCap, &'a ByteLedger)>,
}

impl<'a> FlatRunConfig<'a> {
    /// A plain run of `rounds` rounds: sequential and unmeasured.
    pub fn rounds(rounds: u64) -> FlatRunConfig<'a> {
        FlatRunConfig {
            rounds,
            threads: 1,
            dist: None,
            eps: 0.0,
            confirm: None,
            bandwidth: None,
        }
    }

    /// Shard each round across `threads` workers. Bit-identical to
    /// `threads = 1` at any count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Measure the worst-case absolute distance of the outputs from
    /// `target` each round and judge ε-convergence post hoc — the flat
    /// spelling of [`RunConfig::measure`] with the Euclidean metric on
    /// scalars. A non-finite distance ends the run at once with
    /// `diverged_at` set.
    pub fn measure(self, target: f64, eps: f64) -> Self {
        self.measure_with(
            move |outputs| crate::metric::max_distance(&EuclideanMetric, outputs, &target),
            eps,
        )
    }

    /// Like [`FlatRunConfig::measure`], with an arbitrary distance
    /// functional over the output vector.
    pub fn measure_with(mut self, dist: impl Fn(&[f64]) -> f64 + 'a, eps: f64) -> Self {
        self.dist = Some(Box::new(dist));
        self.eps = eps;
        self
    }

    /// Stop early once the measured distance has stayed within the
    /// ε-ball for `confirm` consecutive rounds.
    pub fn confirm(mut self, confirm: u64) -> Self {
        self.confirm = Some(confirm);
        self
    }

    /// Meter the run under a bandwidth cap — the flat spelling of
    /// [`RunConfig::bandwidth`]: each round, `ledger` is charged one
    /// `cap.bits_per_edge()` charge per routing-plan slot (= per edge).
    pub fn bandwidth(mut self, cap: BandwidthCap, ledger: &'a ByteLedger) -> Self {
        self.bandwidth = Some((cap, ledger));
        self
    }
}
