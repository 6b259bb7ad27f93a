//! **F8** — churn and population-protocol adversaries: an Angluin-style
//! pairing scheduler (uniform-random and round-robin-cover fairness) ×
//! churn scripts (rejoin-carry, rejoin-reset, permanent departure) ×
//! message-fault plans, driven through self-healing Push-Sum and
//! Metropolis. The question mirrors Table 1/Table 2: which cells still
//! *stabilize* once the audience itself churns — convergence only counts
//! strictly after the last fault **or churn transition** (the
//! quiescence-aware report of a churned, faulted `drive`).
//!
//! All randomness (matchings, fault coins) derives from the per-cell
//! seed, and churn scripts ride the variant axis as parseable labels, so
//! output is byte-identical across runs and worker counts — the CI
//! `churn-determinism` job diffs this sweep's NDJSON at `--workers 1`
//! vs `--workers 4`.

use super::{require_sizes, Experiment};
use kya_algos::metropolis::Metropolis;
use kya_algos::push_sum::{total_mass, PushSumState, SelfHealingPushSum};
use kya_harness::SpecError;
use kya_harness::{Args, CellCtx, CellOutcome, ChurnSpec, ExperimentSpec, PlanSpec, ResultSink};
use kya_runtime::churn::ChurnMasked;
use kya_runtime::metric::EuclideanMetric;
use kya_runtime::RunConfig;
use kya_runtime::{Execution, Isotropic};

/// The F8 registry entry.
pub const EXPERIMENT: Experiment = Experiment {
    name: "f8",
    about: "churn: pairing fairness x churn scripts x faults, quiescence-aware recovery",
    extra_flags: &["drop", "horizon"],
    build,
    cell,
    render,
};

fn build(args: &Args) -> Result<Vec<ExperimentSpec>, SpecError> {
    let drop = args.f64_flag("drop", 0.25)?;
    let horizon = args.u64_flag("horizon", 60)?;
    if !(0.0..1.0).contains(&drop) {
        return Err(SpecError("--drop needs [0, 1)".into()));
    }
    // The churn scripts, labelled on the variant axis (ChurnSpec grammar):
    // no churn; one rejoin under Carry; two overlapping rejoins under
    // Reset (fresh state, explicit mass ledger); one permanent departure.
    let variants: Vec<String> = [
        ChurnSpec::stable(),
        ChurnSpec::stable().leave(1, 10..30),
        ChurnSpec::stable()
            .leave(1, 10..30)
            .leave(2, 20..45)
            .reset(),
        ChurnSpec::stable().depart(0, 30),
    ]
    .iter()
    .map(ChurnSpec::label)
    .collect();
    let mut plans = vec![PlanSpec::quiescent()];
    if drop > 0.0 {
        plans.push(PlanSpec::quiescent().drop_links(drop).until(horizon));
    }
    let spec = ExperimentSpec::new("f8_churn")
        .topologies(["pair:uniform:{n}:{seed}", "pair:cover:{n}:{seed}"])
        .sizes([12])
        .algorithms(["healing", "metropolis"])
        .variants(variants)
        .plans(plans)
        .rounds(400)
        .eps(1e-6)
        .with_args(args)?;
    require_sizes(&spec, 3, "the churn scripts name agents 0, 1 and 2")?;
    Ok(vec![spec])
}

fn cell(ctx: &CellCtx) -> CellOutcome {
    let net = super::dynamic_net(&ctx.cell.topology).expect("pairing label");
    let n = net.n();
    let spec = ChurnSpec::parse(&ctx.cell.variant).expect("churn label");
    let membership = spec.build(ctx.cell.cell_seed).membership(n);
    let stack = ChurnMasked::new(net, membership.clone());
    let values: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64).collect();
    let target = values.iter().sum::<f64>() / n as f64;
    let plan = ctx.fault_plan();
    let report = match ctx.cell.algorithm.as_str() {
        "healing" => {
            let fresh = PushSumState::averaging(&values);
            // Under Reset a rejoining agent restarts from its fresh
            // initial state; the z ledger shift shows up in the deficit.
            let reinit = |v: usize, _parked: &PushSumState| fresh[v];
            let z_deficit = move |states: &[PushSumState]| n as f64 - total_mass(states).1;
            Execution::new(Isotropic(SelfHealingPushSum), fresh.clone()).drive(
                &stack,
                RunConfig::rounds(ctx.rounds())
                    .membership(&membership, &reinit)
                    .measure(&EuclideanMetric, &target, ctx.eps())
                    .invariant(&z_deficit)
                    .faults(&plan),
            )
        }
        "metropolis" => {
            let reinit = |v: usize, _parked: &f64| values[v];
            let x0: f64 = values.iter().sum();
            let x_deficit = move |states: &[f64]| x0 - states.iter().sum::<f64>();
            Execution::new(Isotropic(Metropolis), values.clone()).drive(
                &stack,
                RunConfig::rounds(ctx.rounds())
                    .membership(&membership, &reinit)
                    .measure(&EuclideanMetric, &target, ctx.eps())
                    .invariant(&x_deficit)
                    .faults(&plan),
            )
        }
        other => panic!("unknown f8 algorithm `{other}`"),
    };
    CellOutcome::new().report(report.without_trace())
}

fn render(sink: &ResultSink) -> String {
    let mut out = String::from(
        "F8. churn: pairing fairness x churn scripts x faults, quiescence-aware recovery\n",
    );
    out.push_str(&format!(
        "{:>22} {:>22} {:>12} {:>10} {:>10} {:>12} {:>12}\n",
        "graph", "churn", "plan", "algo", "converged", "final dist", "mass deficit"
    ));
    for r in sink.records() {
        let Some(rep) = r.report.as_ref() else {
            continue;
        };
        out.push_str(&format!(
            "{:>22} {:>22} {:>12} {:>10} {:>10} {:>12.2e} {:>12.2e}\n",
            r.topology,
            r.variant,
            r.plan,
            r.algorithm,
            rep.converged_at.map_or("-".to_string(), |k| k.to_string()),
            rep.final_distance,
            rep.mass_deficit.unwrap_or(0.0),
        ));
    }
    out.push_str(
        "\nReading: self-healing Push-Sum re-stabilizes on the exact average \
         under Carry churn (parked mass returns intact) and lands on the \
         ledger-shifted limit under Reset or departures; Metropolis \
         stabilizes under pure churn (its symmetric exchanges survive the \
         masking) but drifts once asymmetric message drops are added. \
         Convergence counts only strictly after the last fault or churn \
         transition.\n",
    );
    out
}
