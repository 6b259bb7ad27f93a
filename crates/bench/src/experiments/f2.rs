//! **F2/F3** — distributed minimum-base stabilization vs the `n + D`
//! bound (§3.2), and the depth-capped finite-state trade-off (§4.2),
//! as one sweep with two algorithm-axis entries:
//!
//! - `stabilization`: measure the round at which every agent's
//!   candidate base stabilizes; certify it is `≤ n + D`;
//! - `depth-cap`: find the smallest view-depth cap whose capped
//!   pipeline still stabilizes to the centralized minimum base.
//!
//! The centralized reference bases come from the shared
//! [`TopologyCache`](kya_harness::TopologyCache), computed once per
//! (topology, values) pair and reused by every worker.

use super::{require_sizes, Experiment};
use crate::minbase_stabilization_round;
use kya_algos::min_base::{DepthCapped, MinBaseBroadcast, MinBaseOutdegree, ViewState};
use kya_fibration::iso::are_isomorphic;
use kya_graph::StaticGraph;
use kya_harness::{Args, CellCtx, CellOutcome, ExperimentSpec, ResultSink, SpecError};
use kya_runtime::{Broadcast, Execution, Isotropic, RunConfig};

/// The F2/F3 registry entry.
pub const EXPERIMENT: Experiment = Experiment {
    name: "f2",
    about: "minimum-base stabilization round vs n + D, and the smallest working depth cap",
    extra_flags: &["rand-sizes"],
    build,
    cell,
    render,
};

const ALGOS: [&str; 2] = ["stabilization", "depth-cap"];

fn build(args: &Args) -> Result<Vec<ExperimentSpec>, SpecError> {
    let rings = ExperimentSpec::new("f2_rings")
        .topologies(["ring:{n}"])
        .sizes([4, 6, 8, 10, 12])
        .algorithms(ALGOS)
        .with_args(args)?;
    require_sizes(&rings, 1, "a ring needs an agent")?;
    let mut specs = vec![rings];
    // One spec per random size: the generator seed is `31 n`, which the
    // `{n}`/`{seed}` placeholders cannot express as a single pattern.
    for n in args.usize_list_flag("rand-sizes", &[6, 9, 12])? {
        if n < 2 {
            return Err(SpecError(format!(
                "--rand-sizes entries must be at least 2 (the graph adds n extra edges), got {n}"
            )));
        }
        specs.push(
            ExperimentSpec::new("f2_random")
                .topologies([format!("random:{n}:{n}:{}", 31 * n as u64)])
                .sizes([n])
                .algorithms(ALGOS),
        );
    }
    Ok(specs)
}

fn values_for(topology: &str, n: usize) -> Vec<u64> {
    if topology.starts_with("random") {
        (0..n).map(|i| (i % 3) as u64).collect()
    } else {
        (0..n).map(|i| (i % 2) as u64).collect()
    }
}

fn cell(ctx: &CellCtx) -> CellOutcome {
    let g = ctx.graph().expect("static label");
    let n = g.n();
    let d = ctx
        .cache
        .diameter(&ctx.cell.topology)
        .ok()
        .flatten()
        .expect("strongly connected");
    let values = values_for(&ctx.cell.topology, n);
    match ctx.cell.algorithm.as_str() {
        "stabilization" => {
            let budget = (2 * (n + d) + 6) as u64;
            let stab =
                minbase_stabilization_round(Broadcast(MinBaseBroadcast), &g, &values, budget)
                    .expect("non-empty history");
            CellOutcome::new()
                .ok(stab <= (n + d) as u64)
                .detail("stabilized_at", stab)
                .detail("bound", (n + d) as u64)
        }
        "depth-cap" => {
            // Reference: the centralized base of G_od (values annotated
            // with outdegrees), shared through the cache.
            let closed = g.with_self_loops();
            let od_values: Vec<u64> = (0..closed.n())
                .map(|v| values[v] * 1000 + closed.outdegree(v) as u64)
                .collect();
            let reference = ctx
                .cache
                .minimum_base(&ctx.cell.topology, &od_values)
                .expect("static label");
            let rounds = (2 * (n + d) + 8) as u64;
            let mut smallest = None;
            for cap in 2..=(n + d + 2) {
                let algo = DepthCapped::new(Isotropic(MinBaseOutdegree), cap);
                let net = StaticGraph::new((*g).clone());
                let mut exec = Execution::new(algo, ViewState::initial(&values));
                exec.drive(&net, RunConfig::rounds(rounds));
                let good = exec.outputs().into_iter().all(|out| {
                    out.map(|cb| {
                        let cb_od_values: Vec<u64> = cb
                            .values
                            .iter()
                            .zip(&cb.annotations)
                            .map(|(v, a)| v * 1000 + a)
                            .collect();
                        are_isomorphic(
                            &cb.graph,
                            &cb_od_values,
                            reference.base(),
                            reference.base_values(),
                        )
                        .is_some()
                    })
                    .unwrap_or(false)
                });
                if good {
                    smallest = Some(cap);
                    break;
                }
            }
            let mut out = CellOutcome::new()
                .ok(smallest.is_some())
                .detail("bound", (n + d) as u64);
            if let Some(cap) = smallest {
                out = out.detail("smallest_cap", cap as u64);
            }
            out
        }
        other => panic!("unknown f2 algorithm `{other}`"),
    }
}

fn detail_u64(r: &kya_harness::CellRecord, key: &str) -> Option<u64> {
    match r.detail(key) {
        Some(serde::Value::UInt(x)) => Some(*x),
        Some(serde::Value::Int(x)) => Some(*x as u64),
        _ => None,
    }
}

fn render(sink: &ResultSink) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "F2/F3. {} — stabilization vs n + D, smallest depth cap\n",
        sink.records()
            .first()
            .map(|r| r.experiment.as_str())
            .unwrap_or("?")
    ));
    out.push_str(&format!(
        "{:>16} {:>4} {:>6} {:>14} {:>6}\n",
        "graph", "n+D", "check", "result", "ok"
    ));
    for r in sink.records() {
        let bound = detail_u64(r, "bound").unwrap_or(0);
        let result = match r.algorithm.as_str() {
            "stabilization" => detail_u64(r, "stabilized_at")
                .map(|s| format!("stab at {s}"))
                .unwrap_or_default(),
            _ => detail_u64(r, "smallest_cap")
                .map(|c| format!("cap {c}"))
                .unwrap_or_else(|| "no cap works".to_string()),
        };
        out.push_str(&format!(
            "{:>16} {bound:>4} {:>6} {result:>14} {:>6}\n",
            r.topology,
            if r.algorithm == "stabilization" {
                "F2"
            } else {
                "F3"
            },
            if r.ok == Some(true) { "ok" } else { "XX" }
        ));
    }
    out
}
