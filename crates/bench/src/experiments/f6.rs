//! **F6** — fault injection and measured recovery: link-drop rates ×
//! crash-recover counts (the fault-plan axis) × three topologies ×
//! {self-healing, plain lossy} Push-Sum. The sweep whose NDJSON output
//! the CI determinism job diffs across `--workers` values, and the
//! wall-clock benchmark for the parallel harness.
//!
//! All fault coins derive from the per-cell seed (a pure function of
//! `--seed` and the cell index), so output is byte-identical across
//! runs and worker counts.

use super::{f64_list_flag, require_sizes, Experiment};
use kya_algos::push_sum::{total_mass, PushSum, PushSumState, SelfHealingPushSum};
use kya_graph::StaticGraph;
use kya_harness::{Args, CellCtx, CellOutcome, ExperimentSpec, PlanSpec, ResultSink, SpecError};
use kya_runtime::metric::EuclideanMetric;
use kya_runtime::RunConfig;
use kya_runtime::{Execution, Isotropic};

/// The F6 registry entry.
pub const EXPERIMENT: Experiment = Experiment {
    name: "f6",
    about: "fault injection: drop/crash sweep, self-healing vs lossy Push-Sum, measured recovery",
    extra_flags: &["drops", "crashes", "horizon"],
    build,
    cell,
    render,
};

fn build(args: &Args) -> Result<Vec<ExperimentSpec>, SpecError> {
    let drops = f64_list_flag(args, "drops", &[0.0, 0.1, 0.2, 0.3, 0.4, 0.5])?;
    let crash_counts = args.usize_list_flag("crashes", &[0, 1, 2])?;
    let horizon = args.u64_flag("horizon", 60)?;
    let mut plans = Vec::new();
    for &p in &drops {
        for &crashes in &crash_counts {
            let mut plan = PlanSpec::quiescent().until(horizon);
            if p > 0.0 {
                plan = plan.drop_links(p);
            }
            // Staggered crash-recover windows inside the fault horizon.
            for c in 0..crashes {
                let from = 10 + 10 * c as u64;
                plan = plan.crash(c, from..from + 20);
            }
            plans.push(plan);
        }
    }
    let spec = ExperimentSpec::new("f6_fault_recovery")
        .topologies(["ring:{n}", "torus:{n}", "random:{n}:8:{seed}"])
        .sizes([12])
        .algorithms(["healing", "plain"])
        .plans(plans)
        .rounds(800)
        .eps(1e-6)
        .with_args(args)?;
    let crashed = crash_counts.iter().copied().max().unwrap_or(0);
    require_sizes(
        &spec,
        crashed.max(2),
        "the random graph adds 8 edges, and crash windows name agents 0..crashes",
    )?;
    Ok(vec![spec])
}

fn cell(ctx: &CellCtx) -> CellOutcome {
    let g = ctx.graph().expect("static label");
    let n = g.n();
    let values: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64).collect();
    let target = values.iter().sum::<f64>() / n as f64;
    let net = StaticGraph::new((*g).clone());
    let plan = ctx.fault_plan();
    // z mass starts (and must stay) at n: the signed deficit is n - Σz.
    let z_deficit = move |states: &[PushSumState]| n as f64 - total_mass(states).1;
    let states = PushSumState::averaging(&values);
    let report = match ctx.cell.algorithm.as_str() {
        "healing" => Execution::new(Isotropic(SelfHealingPushSum), states).drive(
            &net,
            RunConfig::rounds(ctx.rounds())
                .measure(&EuclideanMetric, &target, ctx.eps())
                .invariant(&z_deficit)
                .faults(&plan),
        ),
        // The negative control: plain Push-Sum keeps the default
        // `reabsorb`, which discards bounced shares.
        "plain" => Execution::new(Isotropic(PushSum), states).drive(
            &net,
            RunConfig::rounds(ctx.rounds())
                .measure(&EuclideanMetric, &target, ctx.eps())
                .invariant(&z_deficit)
                .faults(&plan),
        ),
        other => panic!("unknown f6 algorithm `{other}`"),
    };
    CellOutcome::new().report(report.without_trace())
}

fn render(sink: &ResultSink) -> String {
    let mut out = String::from("F6. fault recovery: self-healing vs plain (lossy) Push-Sum\n");
    out.push_str(&format!(
        "{:>16} {:>12} {:>8} {:>12} {:>12} {:>12}\n",
        "graph", "plan", "algo", "converged", "final dist", "mass deficit"
    ));
    for r in sink.records() {
        let Some(rep) = r.report.as_ref() else {
            continue;
        };
        out.push_str(&format!(
            "{:>16} {:>12} {:>8} {:>12} {:>12.2e} {:>12.2e}\n",
            r.topology,
            r.plan,
            r.algorithm,
            rep.converged_at.map_or("-".to_string(), |k| k.to_string()),
            rep.final_distance,
            rep.mass_deficit.unwrap_or(0.0),
        ));
    }
    out.push_str(
        "\nReading: the self-healing variant re-enters the eps-ball after \
         the faults cease at every drop rate; the lossy control keeps a \
         persistent mass deficit and a wrong limit.\n",
    );
    out
}
