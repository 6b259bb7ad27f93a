//! **F1** — Push-Sum convergence rate vs the Theorem 5.2 bound, as
//! three harness sweeps:
//!
//! - `f1a_rings`: sweep `n` on directed rings (`D = n - 1`);
//! - `f1b_layered`: sweep `D` at fixed `n = 24` (layered cycles, one
//!   group count per topology label);
//! - `f1c_eps`: sweep `ε = 10^-k` (the variant axis) on a random
//!   dynamic digraph.
//!
//! Cells early-exit once the outputs have stayed in the ε-ball for 500
//! consecutive rounds (a `drive` with a `confirm` window); Push-Sum on these
//! networks never leaves the ball again, so `converged_at` matches the
//! full-budget answer at a fraction of the wall-clock.

use super::{dynamic_net, observed_convergence, require_sizes, Experiment};
use kya_algos::push_sum::{PushSum, PushSumState};
use kya_graph::StaticGraph;
use kya_harness::{Args, CellCtx, CellOutcome, ExperimentSpec, ResultSink, SpecError};
use kya_runtime::{Execution, Isotropic};

/// The F1 registry entry.
pub const EXPERIMENT: Experiment = Experiment {
    name: "f1",
    about: "Push-Sum rounds to epsilon-consensus (Theorem 5.2)",
    extra_flags: &["groups", "exps"],
    build,
    cell,
    render,
};

const BUDGET: u64 = 400_000;
const CONFIRM: u64 = 500;

fn values_for(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 37) % 101) as f64).collect()
}

fn build(args: &Args) -> Result<Vec<ExperimentSpec>, SpecError> {
    let a = ExperimentSpec::new("f1a_rings")
        .topologies(["ring:{n}"])
        .sizes([4, 8, 12, 16, 24, 32])
        .rounds(BUDGET)
        .eps(1e-6)
        .with_args(args)?;
    require_sizes(&a, 1, "a ring needs an agent")?;
    let groups = args.usize_list_flag("groups", &[2, 3, 4, 6, 8, 12])?;
    let b = ExperimentSpec::new("f1b_layered")
        .topologies(
            groups
                .iter()
                .filter(|&&g| g > 0 && 24 % g == 0)
                .map(|g| format!("layered:{g}x{}", 24 / g)),
        )
        .sizes([24])
        .rounds(BUDGET)
        .eps(1e-6)
        .with_args(args)?
        .sizes([24]);
    let exps = args.usize_list_flag("exps", &[2, 4, 6, 8, 10, 12])?;
    let c = ExperimentSpec::new("f1c_eps")
        .topologies(["dyn:directed:{n}:6:555"])
        .sizes([12])
        .variants(exps.iter().map(|e| e.to_string()))
        .rounds(BUDGET)
        .with_args(args)?
        .sizes([12]);
    Ok(vec![a, b, c])
}

fn cell(ctx: &CellCtx) -> CellOutcome {
    // Variant axis (f1c): the tolerance exponent; otherwise the spec's ε.
    let eps = match ctx.cell.variant.parse::<i32>() {
        Ok(exp) => 10f64.powi(-exp),
        Err(_) => ctx.eps(),
    };
    let run = |n: usize, net: &dyn kya_graph::DynamicGraph| {
        let values = values_for(n);
        let avg = values.iter().sum::<f64>() / n as f64;
        let exec = Execution::new(Isotropic(PushSum), PushSumState::averaging(&values));
        observed_convergence(ctx, exec, net, avg, eps, CONFIRM)
    };
    let (converged, outcome) = match ctx.graph() {
        Ok(g) => run(g.n(), &StaticGraph::new((*g).clone())),
        Err(_) => {
            let net = dynamic_net(&ctx.cell.topology).expect("known dynamic label");
            run(ctx.cell.n, &*net)
        }
    };
    outcome.ok(converged).detail("eps", eps)
}

fn render(sink: &ResultSink) -> String {
    let mut out = String::new();
    let name = sink.records().first().map(|r| r.experiment.as_str());
    match name {
        Some("f1a_rings") => {
            out.push_str("F1(a). rings, eps = 1e-6: rounds vs n^2 D\n");
            out.push_str(&format!(
                "{:>10} {:>4} {:>10} {:>16}\n",
                "graph", "n", "rounds", "rounds/(n^2 D)"
            ));
            for r in sink.records() {
                let rounds = r.report.as_ref().and_then(|rep| rep.converged_at);
                let n = r.n as f64;
                let d = (r.n.max(1) - 1) as f64;
                out.push_str(&match rounds {
                    Some(k) => format!(
                        "{:>10} {:>4} {k:>10} {:>16.5}\n",
                        r.topology,
                        r.n,
                        k as f64 / (n * n * d.max(1.0))
                    ),
                    None => format!("{:>10} {:>4} {:>10}\n", r.topology, r.n, "timeout"),
                });
            }
        }
        Some("f1b_layered") => {
            out.push_str("F1(b). layered cycles at n = 24, eps = 1e-6: rounds vs D\n");
            out.push_str(&format!(
                "{:>14} {:>7} {:>10} {:>10}\n",
                "graph", "groups", "rounds", "rounds/D"
            ));
            for r in sink.records() {
                let rounds = r.report.as_ref().and_then(|rep| rep.converged_at);
                // layered:GxS
                let groups: f64 = r
                    .topology
                    .strip_prefix("layered:")
                    .and_then(|s| s.split('x').next())
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(1.0);
                out.push_str(&match rounds {
                    Some(k) => format!(
                        "{:>14} {groups:>7} {k:>10} {:>10.2}\n",
                        r.topology,
                        k as f64 / groups
                    ),
                    None => format!("{:>14} {groups:>7} {:>10}\n", r.topology, "timeout"),
                });
            }
        }
        _ => {
            out.push_str("F1(c). eps sweep on a random dynamic digraph (n = 12)\n");
            out.push_str(&format!(
                "{:>8} {:>10} {:>20}\n",
                "10^-k", "rounds", "rounds/log10(1/eps)"
            ));
            for r in sink.records() {
                let rounds = r.report.as_ref().and_then(|rep| rep.converged_at);
                let exp: f64 = r.variant.parse().unwrap_or(1.0);
                out.push_str(&match rounds {
                    Some(k) => {
                        format!("{:>8} {k:>10} {:>20.2}\n", r.variant, k as f64 / exp)
                    }
                    None => format!("{:>8} {:>10}\n", r.variant, "timeout"),
                });
            }
            out.push_str(
                "\nReading: rounds grow polynomially with n and D and linearly \
                 with log(1/eps) — the shape of the O(n^2 D log 1/eps) bound, \
                 with measured constants far below the worst case.\n",
            );
        }
    }
    out
}
