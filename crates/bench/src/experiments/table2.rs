//! Regenerate **Table 2** (computable functions in dynamic anonymous
//! networks with finite dynamic diameter) as a harness sweep. Positive
//! cells run the paper's §5 algorithms (gossip, Push-Sum with ℚ_N
//! rounding, leader Push-Sum, Metropolis / fixed-weight averaging) on
//! randomized dynamic graphs; the companion `table2_negative` spec
//! re-executes the core static counterexample (dynamic networks subsume
//! static ones, §5). The two open cells are reported as open, together
//! with the partial positive result that *is* known (Cor. 5.5 / §5.5).

use super::table1::{parse_help, render_checks, HELPS};
use super::{require_sizes, Experiment};
use kya_algos::gossip::{set_functions, SetGossip};
use kya_algos::metropolis::{FixedWeight, Metropolis};
use kya_algos::push_sum::{normalize_estimate, round_to_grid, FrequencyState, PushSumFrequency};
use kya_arith::BigRational;
use kya_core::functions::{maximum, FrequencyFunction};
use kya_core::table::{computable_class, CentralizedHelp, NetworkKind};
use kya_graph::{DynamicGraph, RandomDynamicGraph};
use kya_harness::{Args, CellCtx, CellOutcome, ExperimentSpec, ResultSink, SpecError};
use kya_runtime::{Broadcast, CommunicationModel, Execution, Isotropic, RunConfig};

/// The Table 2 registry entry.
pub const EXPERIMENT: Experiment = Experiment {
    name: "table2",
    about: "certify every cell of Table 2 (dynamic networks), incl. the known open-cell partials",
    extra_flags: &[],
    build,
    cell,
    render,
};

fn build(args: &Args) -> Result<Vec<ExperimentSpec>, SpecError> {
    let positive = ExperimentSpec::new("table2")
        .algorithms(["broadcast", "outdegree", "symmetric"])
        .variants(HELPS)
        .sizes([8])
        .rounds(1200)
        .with_args(args)?;
    require_sizes(
        &positive,
        4,
        "the symmetric column adds 3 random edge pairs",
    )?;
    // The shared negative side: one cell, no axes.
    let negative = ExperimentSpec::new("table2_negative");
    Ok(vec![positive, negative])
}

type Check = (String, bool);

fn values_for(n: usize) -> Vec<u64> {
    const BASE: [u64; 8] = [3, 3, 5, 3, 5, 5, 5, 9];
    (0..n).map(|i| BASE[i % 8]).collect()
}

fn gossip_max_ok(net: &dyn DynamicGraph, values: &[u64], rounds: u64) -> bool {
    let mut exec = Execution::new(Broadcast(SetGossip), SetGossip::initial(values));
    exec.drive(net, RunConfig::rounds(rounds));
    exec.outputs()
        .iter()
        .all(|s| set_functions::max(s) == Some(maximum(values)))
}

fn pushsum_frequencies(
    net: &dyn DynamicGraph,
    values: &[u64],
    rounds: u64,
) -> Vec<kya_algos::push_sum::FrequencyEstimate> {
    let mut exec = Execution::new(
        Isotropic(PushSumFrequency::frequency()),
        FrequencyState::initial(values),
    );
    exec.drive(net, RunConfig::rounds(rounds));
    exec.outputs()
}

/// The outdegree-awareness column: Push-Sum frequency estimation with
/// the help-dependent rounding (Cor. 5.3–5.5, §5.5).
fn outdegree_checks(
    checks: &mut Vec<Check>,
    help: CentralizedHelp,
    n: usize,
    values: &[u64],
    rounds: u64,
) {
    let truth = FrequencyFunction::of(values);
    let net = RandomDynamicGraph::directed(n, 4, 200 + help as u64);
    match help {
        CentralizedHelp::None => {
            // Open cell; the known positive: continuous-in-frequency
            // functions compute approximately (Cor. 5.5).
            let ests = pushsum_frequencies(&net, values, rounds);
            let ok = ests.iter().all(|est| {
                let norm = normalize_estimate(est);
                let avg: f64 = norm.iter().map(|(&v, &f)| v as f64 * f).sum();
                let true_avg = values.iter().sum::<u64>() as f64 / n as f64;
                (avg - true_avg).abs() < 1e-6
            });
            checks.push((
                "average approx via normalized Push-Sum (Cor. 5.5; exact characterization open)"
                    .to_string(),
                ok,
            ));
        }
        CentralizedHelp::BoundKnown => {
            let bound = 12; // N >= n
            let ests = pushsum_frequencies(&net, values, rounds);
            let ok = ests.iter().all(|est| {
                round_to_grid(est, bound)
                    .iter()
                    .all(|(v, f)| *f == truth.frequency(*v))
            });
            checks.push((
                format!("exact frequencies via Push-Sum + Q_N rounding, N={bound} (Cor. 5.3)"),
                ok,
            ));
        }
        CentralizedHelp::SizeKnown => {
            let ests = pushsum_frequencies(&net, values, rounds);
            let ok = ests.iter().all(|est| {
                round_to_grid(est, n).iter().all(|(v, f)| {
                    let mult = f * &BigRational::from_integer(n as i64);
                    let true_mult = values.iter().filter(|&&w| w == *v).count() as i64;
                    mult == BigRational::from_integer(true_mult)
                })
            });
            checks.push((
                format!("exact multiplicities via Push-Sum, n={n} known (Cor. 5.4)"),
                ok,
            ));
        }
        CentralizedHelp::Leader => {
            // Open cell; the known positive: §5.5 leader Push-Sum
            // recovers multiplicities asymptotically.
            let leaders: Vec<bool> = (0..n).map(|i| i == 0).collect();
            let mut exec = Execution::new(
                Isotropic(PushSumFrequency::with_leaders(1)),
                FrequencyState::initial_with_leaders(values, &leaders),
            );
            exec.drive(&net, RunConfig::rounds(rounds));
            let ok = exec.outputs().iter().all(|est| {
                est.iter().all(|(v, x)| {
                    let true_mult = values.iter().filter(|&&w| w == *v).count() as f64;
                    (x - true_mult).abs() < 1e-5
                })
            });
            checks.push((
                "multiplicities asymptotically via leader Push-Sum (§5.5; exact char. open)"
                    .to_string(),
                ok,
            ));
        }
    }
}

/// The symmetric-communications column: averaging consensus with the
/// help-dependent weight rule; attribution-only cells report `true`.
fn symmetric_checks(
    checks: &mut Vec<Check>,
    help: CentralizedHelp,
    n: usize,
    values: &[u64],
    rounds: u64,
) {
    let net = RandomDynamicGraph::symmetric(n, 3, 300 + help as u64);
    let fvals: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    let true_avg = fvals.iter().sum::<f64>() / n as f64;
    match help {
        CentralizedHelp::None => {
            checks.push((
                "exact frequency computation (Di Luna & Viglietta's history trees — \
                 reported per the paper, demonstrated here with Metropolis averaging only)"
                    .to_string(),
                true,
            ));
            let mut exec = Execution::new(Isotropic(Metropolis), fvals.clone());
            exec.drive(&net, RunConfig::rounds(rounds));
            let ok = exec.outputs().iter().all(|x| (x - true_avg).abs() < 1e-6);
            checks.push(("average via Metropolis (asymptotic)".to_string(), ok));
        }
        CentralizedHelp::BoundKnown | CentralizedHelp::SizeKnown => {
            let bound = if help == CentralizedHelp::SizeKnown {
                n
            } else {
                12
            };
            let mut exec = Execution::new(Broadcast(FixedWeight::new(bound)), fvals.clone());
            exec.drive(&net, RunConfig::rounds(3 * rounds));
            let ok = exec.outputs().iter().all(|x| (x - true_avg).abs() < 1e-6);
            checks.push((
                format!("average via fixed-weight 1/N broadcast consensus, N={bound}"),
                ok,
            ));
        }
        CentralizedHelp::Leader => {
            checks.push((
                "multiset recovery (Di Luna & Viglietta [25] — attribution-only cell; \
                 our leader Push-Sum demonstration lives in the outdegree column)"
                    .to_string(),
                true,
            ));
        }
    }
}

/// Negative side (shared by all rows): dynamic networks subsume static
/// ones, so the static counterexamples stand. Re-execute the core one:
/// the ring double cover makes the sum invisible to Push-Sum.
fn negative_cell() -> CellOutcome {
    use kya_graph::{generators, StaticGraph};
    let small = StaticGraph::new(generators::directed_ring(3));
    let large = StaticGraph::new(generators::directed_ring(6));
    let vs = vec![1u64, 5, 9];
    let vl: Vec<u64> = (0..6).map(|i| vs[i % 3]).collect();
    let es = pushsum_frequencies(&small, &vs, 600);
    let el = pushsum_frequencies(&large, &vl, 600);
    let gs = round_to_grid(&es[0], 6);
    let gl = round_to_grid(&el[0], 6);
    let ok = gs == gl && vs.iter().sum::<u64>() != vl.iter().sum::<u64>();
    CellOutcome::new().ok(ok).detail(
        "sum invisible on R_3 vs R_6 (as constant dynamic graphs): \
         identical rounded frequencies; sums 15 vs 30",
        ok,
    )
}

fn cell(ctx: &CellCtx) -> CellOutcome {
    if ctx.spec.name() == "table2_negative" {
        return negative_cell();
    }
    let help = parse_help(&ctx.cell.variant);
    let n = ctx.cell.n;
    let values = values_for(n);
    let rounds = ctx.rounds();

    let mut checks: Vec<Check> = Vec::new();
    let model = match ctx.cell.algorithm.as_str() {
        "broadcast" => {
            let net = RandomDynamicGraph::directed(n, 4, 100 + help as u64);
            checks.push((
                format!("max via gossip (random dynamic digraph, n={n})"),
                gossip_max_ok(&net, &values, 24),
            ));
            CommunicationModel::SimpleBroadcast
        }
        "outdegree" => {
            outdegree_checks(&mut checks, help, n, &values, rounds);
            CommunicationModel::OutdegreeAware
        }
        "symmetric" => {
            symmetric_checks(&mut checks, help, n, &values, rounds);
            CommunicationModel::Symmetric
        }
        other => panic!("unknown table2 column `{other}`"),
    };

    let class = computable_class(NetworkKind::Dynamic, model, help).to_string();
    let all = checks.iter().all(|(_, ok)| *ok);
    let mut out = CellOutcome::new().ok(all).detail("class", class);
    for (label, ok) in checks {
        out = out.detail(label, ok);
    }
    out
}

fn render(sink: &ResultSink) -> String {
    let first = sink.records().first().map(|r| r.experiment.as_str());
    if first == Some("table2_negative") {
        let mut out = String::from("--- negative checks (static counterexamples embed) ---\n");
        for r in sink.records() {
            for (label, v) in &r.details {
                if let serde::Value::Bool(ok) = v {
                    out.push_str(&format!("  [{}] {label}\n", if *ok { "ok" } else { "XX" }));
                }
            }
        }
        out
    } else {
        render_checks(sink, NetworkKind::Dynamic, "TABLE 2")
    }
}
