//! `kya` — the know-your-audience command line.
//!
//! ```text
//! kya tables                       print the paper's computability tables
//! kya minbase  --graph SPEC --values VALS
//!                                  centralized minimum base + fibre census
//! kya census   --graph SPEC --values VALS --model MODEL [--n | --leader K]
//!                                  run the distributed census to stabilization
//! kya pushsum  --n N --values VALS [--rounds R] [--bound B] [--seed S]
//!                                  Push-Sum frequencies on a random dynamic net
//! kya gossip   --graph SPEC --values VALS
//!                                  flood the value set (simple broadcast)
//! kya faults   --graph SPEC --values VALS [--drop P] [--dup P] [--crash A:FROM:UNTIL]
//!              [--until H] [--rounds R] [--seed S] [--eps E] [--plain] [--json]
//!                                  Push-Sum averaging under a fault script,
//!                                  with a measured recovery report (F6)
//! kya churn    --n N --values VALS [--fairness uniform|cover] [--churn SPEC]
//!              [--algo healing|metropolis] [--drop P] [--until H] [--rounds R]
//!              [--seed S] [--eps E] [--json]
//!                                  averaging on an Angluin-style pairing
//!                                  scheduler under a churn script, with a
//!                                  churn-aware recovery report (F8)
//! kya bandwidth --graph SPEC --values VALS [--bits B|inf] [--algo qpushsum|qmetropolis]
//!              [--rounds R] [--json]
//!                                  quantized averaging under a b-bit
//!                                  bandwidth cap, with the byte ledger and
//!                                  exact-ℚ token accounting (F7)
//! kya sweep    [EXPERIMENT] [--workers N] [--ndjson | --json] [flags...]
//!                                  run a registered experiment sweep on the
//!                                  parallel harness; no EXPERIMENT lists them
//! kya trace    [EXPERIMENT] [--trace-out FILE] [--residuals] [flags...]
//!                                  run a sweep with round-level telemetry:
//!                                  records (with counters) on stdout, one
//!                                  NDJSON line per round in the trace file
//! kya check    [--matrix small|full] [--workers N] [--ndjson] [--only CHECK]
//!                                  run the conformance matrix: differential
//!                                  oracles keeping the execution paths and
//!                                  arithmetic backends in agreement
//!                                  (--only restricts to one oracle, e.g.
//!                                  `--only backend` for the certified
//!                                  enclosure oracle alone)
//! kya profile  --probe-out FILE [--smoke] [--threads LIST]
//!                                  write the seeded flat Push-Sum matrix's
//!                                  deterministic probe stream (counters and
//!                                  sample digests, byte-identical at any
//!                                  thread count)
//! ```
//!
//! Graph specs: `ring:6`, `biring:6`, `star:5`, `path:4`, `complete:4`,
//! `torus:3x4` (or `torus:12`), `hypercube:3`, `debruijn:2x3`,
//! `kautz:2x1`, `layered:3x8`, `random:N:EXTRA:SEED`,
//! `randbi:N:EXTRA:SEED`.
//! Value lists: `1,2,3` or `5x3,7` (repeat shorthand).

mod spec;

use kya_algos::frequency::{CensusOutdegree, CensusPorts, CensusSymmetric, FibreCensus};
use kya_algos::gossip::SetGossip;
use kya_algos::metropolis::Metropolis;
use kya_algos::min_base::ViewState;
use kya_algos::push_sum::{
    round_to_grid, total_mass, FrequencyState, PushSum, PushSumFrequency, PushSumState,
    SelfHealingPushSum,
};
use kya_algos::quantized::{QuantizedMetropolis, QuantizedPushSum};
use kya_arith::{BigInt, BigRational};
use kya_core::table::{render_table, NetworkKind};
use kya_fibration::MinimumBase;
use kya_graph::{connectivity, Digraph, RandomDynamicGraph, StaticGraph};
use kya_harness::{Args, CellOutcome, ChurnSpec, ExperimentSpec, PlanSpec, Runner, TelemetryMode};
use kya_runtime::churn::ChurnMasked;
use kya_runtime::metric::EuclideanMetric;
use kya_runtime::{
    Algorithm, BandwidthCap, Broadcast, ByteLedger, Execution, Isotropic, RunConfig,
};
use spec::{parse_graph, parse_values, SpecError};
use std::process::ExitCode;

const USAGE: &str = "usage:
  kya tables
  kya minbase --graph SPEC --values VALS
  kya census  --graph SPEC --values VALS --model outdegree|symmetric|ports [--n | --leader K]
  kya pushsum --n N --values VALS [--rounds R] [--bound B] [--seed S]
  kya gossip  --graph SPEC --values VALS
  kya faults  --graph SPEC --values VALS [--drop P] [--dup P] [--crash A:FROM:UNTIL,...]
              [--until H] [--rounds R] [--seed S] [--eps E] [--plain] [--json]
  kya churn   --n N --values VALS [--fairness uniform|cover] [--churn SPEC]
              [--algo healing|metropolis] [--drop P] [--until H] [--rounds R]
              [--seed S] [--eps E] [--json]
  kya bandwidth --graph SPEC --values VALS [--bits B|inf] [--algo qpushsum|qmetropolis]
              [--rounds R] [--json]
  kya sweep   [EXPERIMENT] [--workers N] [--ndjson | --json] [sweep flags...]
  kya trace   [EXPERIMENT] [--trace-out FILE] [--residuals] [sweep flags...]
  kya check   [--matrix small|full] [--workers N] [--ndjson] [--only CHECK]
  kya profile --probe-out FILE [--smoke] [--threads LIST]

graph specs: ring:6 biring:6 star:5 path:4 complete:4 torus:3x4 torus:12
             hypercube:3 debruijn:2x3 kautz:2x1 layered:3x8
             random:N:EXTRA:SEED randbi:N:EXTRA:SEED
value lists: 1,2,3 or 5x3,7 (repeat shorthand)
crash specs: AGENT:FROM:UNTIL (crash-recover) or AGENT:FROM:- (crash-stop)
churn specs: stable, or cAGENT:LEAVE:REJOIN[,...][+reset] (- = never rejoin),
             e.g. c1:10:30 or c1:10:30,2:20:45+reset
sweeps:      table1 table2 f1 f2 f4 f5 f6 f7 f8 (run `kya sweep` to list)";

fn graph_and_values(args: &Args) -> Result<(Digraph, Vec<u64>), SpecError> {
    let g = parse_graph(args.required("graph")?)?;
    let values = parse_values(args.required("values")?)?;
    if values.len() != g.n() {
        return Err(SpecError(format!(
            "graph has {} agents but {} values were given",
            g.n(),
            values.len()
        )));
    }
    Ok((g, values))
}

/// The census report: frequencies, then exact multiplicities when `n`
/// (`--n`) or the number of leaders (`--leader K`) is known. In leader
/// mode values are printed decoded, leaders marked `(leader)`.
fn census_report(census: &FibreCensus, n: usize, known_n: bool, leaders: Option<usize>) -> String {
    let label = |v: u64| match leaders {
        Some(_) => {
            let (payload, lead) = kya_core::value::decode(v);
            format!("{payload}{}", if lead { " (leader)" } else { "" })
        }
        None => v.to_string(),
    };
    let ray: Vec<String> = census.ray().iter().map(BigInt::to_string).collect();
    let mut out = format!("fibre census (ray [{}]):\n", ray.join(", "));
    for (v, f) in census.frequencies() {
        out += &format!("  value {}: frequency {f}\n", label(v));
    }
    if known_n {
        match census.multiplicities_known_n(n) {
            Ok(mults) => {
                out += &format!("with n = {n} known:\n");
                for (v, m) in mults {
                    out += &format!("  value {}: multiplicity {m}\n", label(v));
                }
            }
            Err(e) => out += &format!("with n known: {e}\n"),
        }
    }
    if let Some(ell) = leaders {
        match census.multiplicities_with_leaders(ell, kya_core::value::is_leader) {
            Ok(mults) => {
                out += &format!("with {ell} leader(s):\n");
                for (v, m) in mults {
                    out += &format!("  value {}: multiplicity {m}\n", label(v));
                }
            }
            Err(e) => out += &format!("with leader(s): {e}\n"),
        }
    }
    out
}

/// `--leader K`: the number of leaders, `1 ≤ K ≤ n`.
fn leader_count(args: &Args, n: usize) -> Result<Option<usize>, SpecError> {
    let Some(k) = args.optional("leader") else {
        return Ok(None);
    };
    match k.parse::<usize>() {
        Ok(k) if (1..=n).contains(&k) => Ok(Some(k)),
        Ok(k) => Err(SpecError(format!(
            "--leader must be between 1 and n = {n}, got {k}"
        ))),
        Err(_) => Err(SpecError(format!(
            "--leader must be a number of leaders, got `{k}`"
        ))),
    }
}

fn cmd_tables() -> Result<(), SpecError> {
    println!("{}", render_table(NetworkKind::Static));
    println!("{}", render_table(NetworkKind::Dynamic));
    Ok(())
}

fn cmd_minbase(args: &Args) -> Result<(), SpecError> {
    let (g, values) = graph_and_values(args)?;
    if !connectivity::is_strongly_connected(&g) {
        return Err(SpecError("graph is not strongly connected".into()));
    }
    let closed = g.with_self_loops();
    let mb = MinimumBase::compute(&closed, &values);
    println!(
        "minimum base: {} fibres (graph is {}fibration prime)",
        mb.base().n(),
        if mb.is_prime() { "" } else { "not " }
    );
    for (i, members) in mb.partition().members().iter().enumerate() {
        println!(
            "  fibre {i}: value {}, size {}, members {:?}",
            mb.base_values()[i],
            members.len(),
            members
        );
    }
    println!("base multiplicities {:?}", mb.base().multiplicity_matrix());
    Ok(())
}

fn cmd_census(args: &Args) -> Result<(), SpecError> {
    print!("{}", census(args)?);
    Ok(())
}

fn census(args: &Args) -> Result<String, SpecError> {
    let (g, mut values) = graph_and_values(args)?;
    if !connectivity::is_strongly_connected(&g) {
        return Err(SpecError("graph is not strongly connected".into()));
    }
    let leaders = leader_count(args, g.n())?;
    if let Some(k) = leaders {
        if let Some(v) = values.iter().find(|&&v| kya_core::value::is_leader(v)) {
            return Err(SpecError(format!(
                "value {v} does not fit in 63 bits, the leader flag needs the top bit"
            )));
        }
        // Flag agents 0..k as the leaders through their values.
        for v in &mut values[..k] {
            *v = kya_core::value::encode(*v, true);
        }
    }
    let d = connectivity::diameter(&g.with_self_loops()).unwrap_or(g.n());
    let rounds = (g.n() + d + 6) as u64;
    let net = StaticGraph::new(g.clone());
    let model = args.required("model")?;
    let census = match model {
        "outdegree" => agent0_census(Isotropic(CensusOutdegree), &values, &net, rounds),
        "symmetric" => {
            if !g.is_bidirectional() {
                return Err(SpecError(
                    "the symmetric model needs a bidirectional graph".into(),
                ));
            }
            agent0_census(Broadcast(CensusSymmetric), &values, &net, rounds)
        }
        "ports" => agent0_census(CensusPorts, &values, &net, rounds),
        other => {
            return Err(SpecError(format!(
                "unknown model `{other}` (outdegree, symmetric, ports)"
            )))
        }
    };
    match census {
        Some(census) => Ok(format!(
            "stabilized after at most {rounds} rounds (n + D + slack)\n{}",
            census_report(&census, g.n(), args.is_set("n"), leaders)
        )),
        None => Err(SpecError(
            "census did not stabilize within n + D + slack rounds".into(),
        )),
    }
}

/// Drive a census algorithm for `rounds` rounds and read agent 0's
/// census; no other agent's output is computed.
fn agent0_census<A>(algo: A, values: &[u64], net: &StaticGraph, rounds: u64) -> Option<FibreCensus>
where
    A: Algorithm<State = ViewState, Output = Option<FibreCensus>> + Sync,
    A::Msg: Send + Sync,
{
    let mut exec = Execution::new(algo, ViewState::initial(values));
    exec.drive(net, RunConfig::rounds(rounds));
    exec.algorithm().output(&exec.states()[0])
}

fn cmd_pushsum(args: &Args) -> Result<(), SpecError> {
    let n: usize = args
        .required("n")?
        .parse()
        .map_err(|_| SpecError("--n must be a number".into()))?;
    let values = parse_values(args.required("values")?)?;
    if values.len() != n {
        return Err(SpecError(format!(
            "--n {n} but {} values were given",
            values.len()
        )));
    }
    let rounds = args.u64_flag("rounds", 600)?;
    let seed = args.u64_flag("seed", 42)?;
    // Frequencies have denominators up to n, so a grid Q_B with B < n
    // cannot hold them: rounding onto it prints a wrong answer.
    let bound = match args.optional("bound") {
        Some(b) => match b.parse::<usize>() {
            Ok(bound) if bound >= n => Some(bound),
            Ok(bound) => {
                return Err(SpecError(format!(
                    "--bound must be at least n = {n}, got {bound}"
                )))
            }
            Err(_) => return Err(SpecError("--bound must be a number".into())),
        },
        None => None,
    };
    // A single agent has no pair to add an extra edge between.
    let extra = if n > 1 { (n / 2).max(1) } else { 0 };
    let net = RandomDynamicGraph::directed(n, extra, seed);
    let mut exec = Execution::new(
        Isotropic(PushSumFrequency::frequency()),
        FrequencyState::initial(&values),
    );
    exec.drive(&net, RunConfig::rounds(rounds));
    let est = exec.outputs()[0].clone();
    println!("push-sum frequency estimates after {rounds} rounds (agent 0):");
    for (v, x) in &est {
        println!("  value {v}: {x:.9}");
    }
    if let Some(bound) = bound {
        println!("rounded to the grid Q_{bound}:");
        // round_to_grid clamps to [0, 1] and sends non-finite estimates
        // (leader mode before any weight arrives) to 0, so every printed
        // frequency is a genuine grid point.
        for (v, f) in round_to_grid(&est, bound) {
            println!("  value {v}: {f}");
        }
    }
    Ok(())
}

fn cmd_gossip(args: &Args) -> Result<(), SpecError> {
    let (g, values) = graph_and_values(args)?;
    let d = connectivity::diameter(&g.with_self_loops())
        .ok_or_else(|| SpecError("graph is not strongly connected".into()))?;
    let net = StaticGraph::new(g);
    let mut exec = Execution::new(Broadcast(SetGossip), SetGossip::initial(&values));
    exec.drive(&net, RunConfig::rounds(d as u64 + 1));
    println!(
        "value set after D + 1 = {} rounds: {:?}",
        d + 1,
        exec.outputs()[0]
    );
    Ok(())
}

/// Fold `--crash` specs (`AGENT:FROM:UNTIL` crash-recover,
/// `AGENT:FROM:-` crash-stop, comma-separated) into the plan template.
fn parse_crashes(spec: &str, n: usize, mut plan: PlanSpec) -> Result<PlanSpec, SpecError> {
    for item in spec.split(',').filter(|s| !s.is_empty()) {
        let parts: Vec<&str> = item.split(':').collect();
        let [agent, from, until] = parts[..] else {
            return Err(SpecError(format!(
                "invalid crash spec `{item}`: expected AGENT:FROM:UNTIL or AGENT:FROM:-"
            )));
        };
        let agent: usize = agent
            .parse()
            .map_err(|_| SpecError(format!("invalid crash agent `{agent}`")))?;
        if agent >= n {
            return Err(SpecError(format!(
                "crash agent {agent} out of range (the graph has {n} agents)"
            )));
        }
        let from: u64 = from
            .parse()
            .map_err(|_| SpecError(format!("invalid crash round `{from}`")))?;
        if from == 0 {
            return Err(SpecError("crash rounds are numbered from 1".into()));
        }
        plan = if until == "-" {
            plan.crash_stop(agent, from)
        } else {
            let until: u64 = until
                .parse()
                .map_err(|_| SpecError(format!("invalid crash end round `{until}`")))?;
            if until <= from {
                return Err(SpecError(format!(
                    "crash window `{item}` is empty (UNTIL must exceed FROM)"
                )));
            }
            plan.crash(agent, from..until)
        };
    }
    Ok(plan)
}

/// The `--rounds` budget of a recovery or bandwidth run: at least one
/// round, or there is nothing to report on.
fn round_budget(args: &Args, default: u64) -> Result<u64, SpecError> {
    match args.u64_flag("rounds", default)? {
        0 => Err(SpecError("--rounds must be at least 1".into())),
        rounds => Ok(rounds),
    }
}

/// The `--until` fault horizon: probabilistic faults cease after it so
/// "rounds to recover after the last fault" is well defined. Defaults to
/// half the run (at least round 1); an explicit 0 is rejected — a plan
/// whose faults cease before round 1 is a quiescent plan, not a horizon.
fn fault_horizon(args: &Args, rounds: u64) -> Result<u64, SpecError> {
    let horizon = args.u64_flag("until", (rounds / 2).max(1))?;
    if horizon == 0 {
        return Err(SpecError(
            "--until must be at least 1 (rounds are numbered from 1)".into(),
        ));
    }
    Ok(horizon)
}

/// The F6 one-off: a single-cell harness sweep over the scripted fault
/// plan, reported as a [`kya_runtime::CellReport`].
fn cmd_faults(args: &Args) -> Result<(), SpecError> {
    let (g, values) = graph_and_values(args)?;
    if !connectivity::is_strongly_connected(&g) {
        return Err(SpecError("graph is not strongly connected".into()));
    }
    let n = g.n();
    let drop_p = args.f64_flag("drop", 0.0)?;
    let dup_p = args.f64_flag("dup", 0.0)?;
    if !(0.0..1.0).contains(&drop_p) || !(0.0..=1.0).contains(&dup_p) {
        return Err(SpecError("--drop needs [0,1), --dup needs [0,1]".into()));
    }
    let rounds = round_budget(args, 300)?;
    let seed = args.u64_flag("seed", 42)?;
    let eps = args.f64_flag("eps", 1e-6)?;
    let horizon = fault_horizon(args, rounds)?;
    let mut plan = PlanSpec::quiescent().until(horizon).with_seed(seed);
    if drop_p > 0.0 {
        plan = plan.drop_links(drop_p);
    }
    if dup_p > 0.0 {
        plan = plan.duplicate(dup_p);
    }
    if let Some(spec) = args.optional("crash") {
        plan = parse_crashes(spec, n, plan)?;
    }
    let plain = args.is_set("plain");

    let inputs: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    let target = inputs.iter().sum::<f64>() / n as f64;
    let shown_plan = plan.build(seed);
    let spec = ExperimentSpec::new("faults")
        .topologies([args.required("graph")?.to_string()])
        .sizes([n])
        .algorithms([if plain { "plain" } else { "healing" }])
        .plans([plan])
        .rounds(rounds)
        .eps(eps)
        .base_seed(seed);
    let sink = Runner::new(&spec).run(|ctx| {
        let g = ctx.graph().expect("validated above");
        let net = StaticGraph::new((*g).clone());
        let states = PushSumState::averaging(&inputs);
        // z mass starts (and must stay) at n: the signed deficit is n - Σz.
        let z_deficit = move |states: &[PushSumState]| n as f64 - total_mass(states).1;
        let plan = ctx.fault_plan();
        let report = if plain {
            Execution::new(Isotropic(PushSum), states).drive(
                &net,
                RunConfig::rounds(ctx.rounds())
                    .measure(&EuclideanMetric, &target, ctx.eps())
                    .invariant(&z_deficit)
                    .faults(&plan),
            )
        } else {
            Execution::new(Isotropic(SelfHealingPushSum), states).drive(
                &net,
                RunConfig::rounds(ctx.rounds())
                    .measure(&EuclideanMetric, &target, ctx.eps())
                    .invariant(&z_deficit)
                    .faults(&plan),
            )
        };
        CellOutcome::new().report(report)
    });
    let record = sink.records().first().expect("one cell");
    let report = record.report.as_ref().expect("report recorded");
    if args.is_set("json") {
        println!("{}", serde::to_json_string(record));
        return Ok(());
    }
    println!(
        "push-sum ({}) averaging to {target} under fault plan:",
        if plain {
            "plain, lossy — negative control"
        } else {
            "self-healing"
        }
    );
    println!("  {}", serde::to_json_string(&shown_plan));
    println!(
        "injected: {} drops, {} duplications, {} bounces to crashed agents",
        report.events.dropped, report.events.duplicated, report.events.bounced_to_crashed
    );
    println!("{report}");
    Ok(())
}

/// The deterministic `--json` record of one `kya bandwidth` run.
#[derive(serde::Serialize)]
struct BandwidthRecord {
    graph: String,
    algorithm: String,
    cap: String,
    rounds: u64,
    n: usize,
    outputs: Vec<f64>,
    /// Exact token ratios in ℚ, one per agent — empty for `--bits inf`,
    /// where the run is plain f64 and has no token ledger.
    exact: Vec<String>,
    mass_conserved: bool,
    /// Max |output − input mean|, the convergence residual.
    residual: f64,
    bits_per_edge: u64,
    total_bits: u64,
    total_bytes: u64,
}

/// The F7 one-off: quantized Push-Sum or Metropolis on a static graph
/// under a b-bit bandwidth cap, with the per-round byte ledger, exact-ℚ
/// token accounting, and the convergence residual the cap costs.
fn cmd_bandwidth(args: &Args) -> Result<(), SpecError> {
    let (g, values) = graph_and_values(args)?;
    if !connectivity::is_strongly_connected(&g) {
        return Err(SpecError("graph is not strongly connected".into()));
    }
    let cap_s = args.optional("bits").unwrap_or("8");
    let cap = BandwidthCap::parse(cap_s)
        .ok_or_else(|| SpecError(format!("invalid --bits `{cap_s}` (1..=52, or `inf`)")))?;
    let algo_name = args.optional("algo").unwrap_or("qpushsum");
    let rounds = round_budget(args, 200)?;
    let g = g.with_self_loops();
    let n = g.n();
    let edges = g.edge_count() as u64;
    let inputs: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    let target = inputs.iter().sum::<f64>() / n as f64;
    let ledger = ByteLedger::new();
    let net = StaticGraph::new(g);

    let (outputs, exact, mass_conserved) = match (algo_name, cap.codec()) {
        ("qpushsum", Some(codec)) => {
            let algo = QuantizedPushSum::new(codec.bits());
            let inits = algo.initial(&inputs);
            let before = QuantizedPushSum::total_tokens(&inits);
            let mut exec = Execution::new(Isotropic(algo), inits);
            exec.drive(&net, RunConfig::rounds(rounds).bandwidth(cap, &ledger));
            let after = QuantizedPushSum::total_tokens(exec.states());
            let exact: Vec<String> = exec
                .states()
                .iter()
                .map(|s| {
                    BigRational::new(BigInt::from(s.y as u64), BigInt::from(s.z as u64)).to_string()
                })
                .collect();
            (exec.outputs(), exact, before == after)
        }
        ("qmetropolis", Some(codec)) => {
            let bound = inputs.iter().copied().fold(1.0f64, f64::max);
            let algo = QuantizedMetropolis::new(codec.bits(), bound);
            let inits = algo.initial(&inputs);
            let before = QuantizedMetropolis::total_tokens(&inits);
            let mut exec = Execution::new(Isotropic(algo), inits);
            exec.drive(&net, RunConfig::rounds(rounds).bandwidth(cap, &ledger));
            let after = QuantizedMetropolis::total_tokens(exec.states());
            let exact: Vec<String> = exec
                .states()
                .iter()
                .map(|&x| {
                    BigRational::new(BigInt::from(x as u64), BigInt::from(codec.levels()))
                        .to_string()
                })
                .collect();
            (exec.outputs(), exact, before == after)
        }
        // `--bits inf`: the unquantized algorithm with the cap rung as a
        // pure observer — no tokens, so no exact column; the ledger
        // still meters the full 64 bits per edge per round.
        ("qpushsum", None) => {
            let mut exec = Execution::new(Isotropic(PushSum), PushSumState::averaging(&inputs));
            exec.drive(&net, RunConfig::rounds(rounds).bandwidth(cap, &ledger));
            (exec.outputs(), Vec::new(), true)
        }
        ("qmetropolis", None) => {
            let mut exec = Execution::new(Isotropic(Metropolis), inputs.clone());
            exec.drive(&net, RunConfig::rounds(rounds).bandwidth(cap, &ledger));
            (exec.outputs(), Vec::new(), true)
        }
        (other, _) => {
            return Err(SpecError(format!(
                "unknown --algo `{other}` (qpushsum|qmetropolis)"
            )));
        }
    };
    let residual = outputs
        .iter()
        .map(|x| (x - target).abs())
        .fold(0.0f64, f64::max);
    let record = BandwidthRecord {
        graph: args.required("graph")?.to_string(),
        algorithm: algo_name.to_string(),
        cap: cap.label(),
        rounds,
        n,
        outputs,
        exact,
        mass_conserved,
        residual,
        bits_per_edge: cap.bits_per_edge(),
        total_bits: ledger.total_bits(),
        total_bytes: ledger.total_bytes(),
    };
    if args.is_set("json") {
        println!("{}", serde::to_json_string(&record));
        return Ok(());
    }
    println!(
        "{} averaging to {target} under cap {} ({} bits/edge/round), {rounds} rounds:",
        record.algorithm, record.cap, record.bits_per_edge
    );
    for (v, x) in record.outputs.iter().enumerate() {
        match record.exact.get(v) {
            Some(r) => println!("  agent {v}: {x:.9}  (exact {r})"),
            None => println!("  agent {v}: {x:.9}"),
        }
    }
    println!(
        "token mass conserved exactly: {}",
        if record.mass_conserved { "yes" } else { "NO" }
    );
    println!("max |x_i - target|: {residual:.3e}");
    println!(
        "ledger: {edges} edges x {rounds} rounds x {} bits = {} bits ({} bytes)",
        record.bits_per_edge, record.total_bits, record.total_bytes
    );
    Ok(())
}

/// The F8 one-off: a single-cell harness sweep over an Angluin-style
/// pairing scheduler, a churn script, and optional message faults —
/// self-healing Push-Sum or Metropolis averaging with the churn-aware
/// recovery report (convergence counts only strictly after the last
/// fault *or churn transition*).
fn cmd_churn(args: &Args) -> Result<(), SpecError> {
    let n: usize = args
        .required("n")?
        .parse()
        .map_err(|_| SpecError("--n must be a number".into()))?;
    if n < 2 {
        return Err(SpecError("--n must be at least 2".into()));
    }
    let values = parse_values(args.required("values")?)?;
    if values.len() != n {
        return Err(SpecError(format!(
            "--n {n} but {} values were given",
            values.len()
        )));
    }
    let fairness = args.optional("fairness").unwrap_or("uniform");
    if !matches!(fairness, "uniform" | "cover") {
        return Err(SpecError(format!(
            "unknown fairness `{fairness}` (uniform, cover)"
        )));
    }
    let algo = args.optional("algo").unwrap_or("healing");
    if !matches!(algo, "healing" | "metropolis") {
        return Err(SpecError(format!(
            "unknown algorithm `{algo}` (healing, metropolis)"
        )));
    }
    let churn = ChurnSpec::parse(args.optional("churn").unwrap_or("stable"))?;
    for w in churn.windows() {
        if w.agent >= n {
            return Err(SpecError(format!(
                "churn agent {} out of range (the population has {n} agents)",
                w.agent
            )));
        }
        if w.leave == 0 {
            return Err(SpecError("churn rounds are numbered from 1".into()));
        }
        if let Some(rejoin) = w.rejoin {
            if rejoin <= w.leave {
                return Err(SpecError(format!(
                    "churn window `{}:{}:{rejoin}` is empty (REJOIN must exceed LEAVE)",
                    w.agent, w.leave
                )));
            }
        }
    }
    let drop_p = args.f64_flag("drop", 0.0)?;
    if !(0.0..1.0).contains(&drop_p) {
        return Err(SpecError("--drop needs [0,1)".into()));
    }
    let rounds = round_budget(args, 300)?;
    let seed = args.u64_flag("seed", 42)?;
    let eps = args.f64_flag("eps", 1e-6)?;
    let horizon = fault_horizon(args, rounds)?;
    let mut plan = PlanSpec::quiescent().until(horizon).with_seed(seed);
    if drop_p > 0.0 {
        plan = plan.drop_links(drop_p);
    }

    let inputs: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    let target = inputs.iter().sum::<f64>() / n as f64;
    let shown_plan = plan.build(seed);
    let spec = ExperimentSpec::new("churn")
        .topologies([format!("pair:{fairness}:{{n}}:{{seed}}")])
        .sizes([n])
        .seeds([seed])
        .algorithms([algo])
        .variants([churn.label()])
        .plans([plan])
        .rounds(rounds)
        .eps(eps)
        .base_seed(seed);
    let sink = Runner::new(&spec).run(|ctx| {
        let net = kya_bench::experiments::dynamic_net(&ctx.cell.topology).expect("validated above");
        let membership = ChurnSpec::parse(&ctx.cell.variant)
            .expect("validated above")
            .build(ctx.cell.cell_seed)
            .membership(n);
        let stack = ChurnMasked::new(net, membership.clone());
        let plan = ctx.fault_plan();
        let report = match ctx.cell.algorithm.as_str() {
            "healing" => {
                let fresh = PushSumState::averaging(&inputs);
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
            _ => {
                let reinit = |v: usize, _parked: &f64| inputs[v];
                let x0: f64 = inputs.iter().sum();
                let x_deficit = move |states: &[f64]| x0 - states.iter().sum::<f64>();
                Execution::new(Isotropic(Metropolis), inputs.clone()).drive(
                    &stack,
                    RunConfig::rounds(ctx.rounds())
                        .membership(&membership, &reinit)
                        .measure(&EuclideanMetric, &target, ctx.eps())
                        .invariant(&x_deficit)
                        .faults(&plan),
                )
            }
        };
        CellOutcome::new().report(report)
    });
    let record = sink.records().first().expect("one cell");
    let report = record.report.as_ref().expect("report recorded");
    if args.is_set("json") {
        println!("{}", serde::to_json_string(record));
        return Ok(());
    }
    let membership = churn.build(seed).membership(n);
    println!(
        "{} averaging to {target} on pair:{fairness}:{n} under churn `{}`:",
        if algo == "healing" {
            "self-healing push-sum"
        } else {
            "metropolis"
        },
        churn.label()
    );
    println!("  fault plan: {}", serde::to_json_string(&shown_plan));
    println!(
        "  membership: {} windows, live count at horizon {}, last transition round {}",
        churn.windows().len(),
        membership.live_count(rounds),
        membership.last_transition()
    );
    println!(
        "injected: {} drops, {} duplications, {} bounces to crashed agents",
        report.events.dropped, report.events.duplicated, report.events.bounced_to_crashed
    );
    println!("{report}");
    Ok(())
}

fn cmd_sweep(argv: &[String]) -> Result<(), SpecError> {
    let Some(name) = argv.first() else {
        println!("available experiment sweeps:");
        for e in kya_bench::experiments::EXPERIMENTS {
            println!("  {:<8} {}", e.name, e.about);
        }
        return Ok(());
    };
    match kya_bench::experiments::run(name, &argv[1..])? {
        true => Ok(()),
        false => Err(SpecError(format!(
            "sweep `{name}`: some cells FAILED — see [XX] lines above"
        ))),
    }
}

/// `kya trace EXPERIMENT` — the experiment's sweep with round-level
/// telemetry on: cell records (including their `telemetry` counter
/// blocks) stream to stdout as NDJSON, and the per-round event stream
/// goes to `--trace-out` (default `EXPERIMENT.trace.ndjson`). The trace
/// file carries only deterministic fields, so it is byte-identical
/// across runs and worker counts.
fn cmd_trace(argv: &[String]) -> Result<(), SpecError> {
    let Some(name) = argv.first() else {
        println!("experiments traceable with `kya trace NAME`:");
        for e in kya_bench::experiments::EXPERIMENTS {
            println!("  {:<8} {}", e.name, e.about);
        }
        return Ok(());
    };
    let rest = &argv[1..];
    let args = Args::parse(rest);
    let mode = TelemetryMode {
        trace: true,
        residuals: args.is_set("residuals"),
    };
    let out_path = args
        .optional("trace-out")
        .map_or_else(|| format!("{name}.trace.ndjson"), str::to_string);
    let (_, sinks) =
        kya_bench::experiments::run_collect(name, rest, mode, kya_bench::experiments::TRACE_FLAGS)?;
    let mut trace = String::new();
    for sink in &sinks {
        print!("{}", sink.to_ndjson());
        trace.push_str(&sink.to_trace_ndjson());
    }
    std::fs::write(&out_path, &trace)
        .map_err(|e| SpecError(format!("cannot write trace to `{out_path}`: {e}")))?;
    eprintln!(
        "kya trace: {} round events written to {out_path}",
        trace.lines().count()
    );
    match sinks.iter().all(kya_harness::ResultSink::all_ok) {
        true => Ok(()),
        false => Err(SpecError(format!(
            "trace `{name}`: some cells FAILED — see records above"
        ))),
    }
}

/// The conformance matrix: run every differential oracle and report
/// per-check pass/fail counts (or the raw NDJSON stream with
/// `--ndjson`, which is byte-identical at any `--workers N`).
fn cmd_check(args: &Args) -> Result<(), SpecError> {
    let matrix = kya_conformance::Matrix::parse(args.optional("matrix").unwrap_or("small"))?;
    let workers = match args.optional("workers") {
        Some(w) => w
            .parse::<usize>()
            .map_err(|_| SpecError(format!("invalid worker count `{w}`")))?,
        None => 1,
    };
    let only = match args.optional("only") {
        Some(name) => Some(kya_conformance::CheckKind::parse(name).ok_or_else(|| {
            SpecError(format!(
                "unknown check `{name}` (paths|backend|relabel|mass|lift|churn|flat|probe|bandwidth)"
            ))
        })?),
        None => None,
    };
    let results = kya_conformance::run_only(matrix, workers, only);
    if args.is_set("ndjson") {
        print!("{}", kya_conformance::to_ndjson(&results));
    } else {
        for (kind, sink) in &results {
            let failures = sink.failures();
            println!("{kind:?}: {} cells, {} failed", sink.len(), failures.len());
            for r in failures {
                println!("  FAIL {}", serde::to_json_string(r));
            }
        }
    }
    if kya_conformance::all_ok(&results) {
        Ok(())
    } else {
        Err(SpecError(format!(
            "conformance: {} cell(s) FAILED",
            kya_conformance::failure_count(&results)
        )))
    }
}

/// `kya profile` — write the seeded flat matrix's *deterministic* probe
/// stream to `--probe-out` (the artifact CI byte-diffs across
/// `--threads` and pins to a golden hash).
fn cmd_profile(args: &Args) -> Result<(), SpecError> {
    use kya_bench::profile::{self, ProfileConfig};
    let path = args.required("probe-out")?;
    let cfg = if args.is_set("smoke") {
        ProfileConfig::smoke()
    } else {
        ProfileConfig::full()
    };
    let threads = args.usize_list_flag("threads", &[1])?;
    if threads.contains(&0) {
        return Err(SpecError("--threads entries must be positive".into()));
    }
    // The stream runs at ONE thread count (the first of `--threads`) and
    // holds only deterministic bytes, so two invocations differing in
    // `--threads` must produce identical files.
    let stream = profile::probe_stream(&cfg, threads.first().copied().unwrap_or(1));
    std::fs::write(path, &stream)
        .map_err(|e| SpecError(format!("cannot write probe stream to `{path}`: {e}")))?;
    eprintln!(
        "kya profile: {} probe lines written to {path}",
        stream.lines().count()
    );
    Ok(())
}

fn run() -> Result<(), SpecError> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        return Err(SpecError(USAGE.into()));
    };
    if cmd == "sweep" {
        // The experiment owns its flag set (including extras like F6's
        // `--drops`), so delegate before generic flag validation.
        return cmd_sweep(&argv[1..]);
    }
    if cmd == "trace" {
        return cmd_trace(&argv[1..]);
    }
    let args = Args::parse(&argv[1..]);
    if !args.bare().is_empty() {
        return Err(SpecError(format!(
            "unexpected arguments {:?}\n\n{USAGE}",
            args.bare()
        )));
    }
    let kya_cmd = format!("kya {cmd}");
    match cmd.as_str() {
        "tables" => {
            args.reject_unknown(&kya_cmd, &[])?;
            cmd_tables()
        }
        "minbase" => {
            args.reject_unknown(&kya_cmd, &["graph", "values"])?;
            cmd_minbase(&args)
        }
        "census" => {
            args.reject_unknown(&kya_cmd, &["graph", "values", "model", "n", "leader"])?;
            cmd_census(&args)
        }
        "pushsum" => {
            args.reject_unknown(&kya_cmd, &["n", "values", "rounds", "bound", "seed"])?;
            cmd_pushsum(&args)
        }
        "gossip" => {
            args.reject_unknown(&kya_cmd, &["graph", "values"])?;
            cmd_gossip(&args)
        }
        "faults" => {
            args.reject_unknown(
                &kya_cmd,
                &[
                    "graph", "values", "drop", "dup", "crash", "until", "rounds", "seed", "eps",
                    "plain", "json",
                ],
            )?;
            cmd_faults(&args)
        }
        "churn" => {
            args.reject_unknown(
                &kya_cmd,
                &[
                    "n", "values", "fairness", "churn", "algo", "drop", "until", "rounds", "seed",
                    "eps", "json",
                ],
            )?;
            cmd_churn(&args)
        }
        "bandwidth" => {
            args.reject_unknown(
                &kya_cmd,
                &["graph", "values", "bits", "algo", "rounds", "json"],
            )?;
            cmd_bandwidth(&args)
        }
        "check" => {
            args.reject_unknown(&kya_cmd, &["matrix", "workers", "ndjson", "only"])?;
            cmd_check(&args)
        }
        "profile" => {
            args.reject_unknown(&kya_cmd, &["smoke", "threads", "probe-out"])?;
            cmd_profile(&args)
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(SpecError(format!("unknown command `{other}`\n\n{USAGE}"))),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("kya: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flag_parsing() {
        let a = args(&["--graph", "ring:5", "--n", "--values", "1,2"]);
        assert_eq!(a.required("graph").unwrap(), "ring:5");
        assert_eq!(a.optional("n"), Some("true"));
        assert_eq!(a.optional("values"), Some("1,2"));
        assert!(a.required("missing").is_err());
        assert!(a.bare().is_empty());
    }

    #[test]
    fn bare_arguments_detected() {
        let a = args(&["oops", "--graph", "ring:3"]);
        assert_eq!(a.bare(), &["oops".to_string()]);
    }

    #[test]
    fn graph_and_values_length_check() {
        let a = args(&["--graph", "ring:3", "--values", "1,2"]);
        assert!(graph_and_values(&a).is_err());
        let a = args(&["--graph", "ring:3", "--values", "1,2,3"]);
        let (g, v) = graph_and_values(&a).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    fn subcommands_run() {
        assert!(cmd_tables().is_ok());
        let a = args(&["--graph", "star:4", "--values", "7,1,1,1"]);
        assert!(cmd_minbase(&a).is_ok());
        assert!(cmd_gossip(&a).is_ok());
        let a = args(&[
            "--graph",
            "star:4",
            "--values",
            "7,1,1,1",
            "--model",
            "symmetric",
        ]);
        assert!(cmd_census(&a).is_ok());
        let a = args(&[
            "--graph",
            "ring:4",
            "--values",
            "7,1,1,1",
            "--model",
            "symmetric",
        ]);
        assert!(cmd_census(&a).is_err(), "directed ring is not symmetric");
        let a = args(&[
            "--n", "4", "--values", "1x2,9x2", "--rounds", "200", "--bound", "4",
        ]);
        assert!(cmd_pushsum(&a).is_ok());
    }

    #[test]
    fn unknown_flags_rejected_with_valid_set() {
        let a = args(&["--graph", "ring:3", "--vaules", "1,2,3"]);
        let err = a
            .reject_unknown("kya minbase", &["graph", "values"])
            .unwrap_err();
        assert!(err.0.contains("--vaules"), "{err}");
        assert!(
            err.0.contains("--graph, --values"),
            "names the valid set: {err}"
        );
        let a = args(&["--anything", "x"]);
        let err = a.reject_unknown("kya tables", &[]).unwrap_err();
        assert!(err.0.contains("takes none"), "{err}");
        let a = args(&["--graph", "ring:3", "--values", "1,2,3"]);
        assert!(a
            .reject_unknown("kya minbase", &["graph", "values"])
            .is_ok());
    }

    #[test]
    fn census_leader_count_is_parsed_strictly() {
        for (k, needle) in [
            ("abc", "a number"),
            ("0", "between 1"),
            ("true", "a number"),
        ] {
            let a = args(&[
                "--graph",
                "complete:3",
                "--values",
                "3,3,3",
                "--model",
                "outdegree",
                "--leader",
                k,
            ]);
            let err = census(&a).unwrap_err();
            assert!(err.0.contains(needle), "--leader {k}: {err}");
        }
        // More leaders than agents.
        let a = args(&[
            "--graph",
            "complete:1",
            "--values",
            "3",
            "--model",
            "outdegree",
            "--leader",
            "5",
        ]);
        assert!(census(&a).unwrap_err().0.contains("between 1"));
        // A value using the top bit cannot carry the leader flag.
        let a = args(&[
            "--graph",
            "complete:2",
            "--values",
            "1,9223372036854775808",
            "--model",
            "outdegree",
            "--leader",
            "1",
        ]);
        assert!(census(&a).unwrap_err().0.contains("63 bits"));
    }

    #[test]
    fn census_flags_k_leaders() {
        let a = args(&[
            "--graph",
            "complete:3",
            "--values",
            "3,3,3",
            "--model",
            "outdegree",
            "--leader",
            "2",
        ]);
        let report = census(&a).unwrap();
        assert!(report.contains("with 2 leader(s):"), "{report}");
        assert!(
            report.contains("value 3 (leader): multiplicity 2"),
            "{report}"
        );
        assert!(report.contains("value 3: multiplicity 1"), "{report}");
    }

    #[test]
    fn census_frequencies_print_decoded_values() {
        let a = args(&[
            "--graph",
            "star:4",
            "--values",
            "1,2,2,2",
            "--model",
            "symmetric",
            "--leader",
            "1",
        ]);
        let report = census(&a).unwrap();
        assert!(
            report.contains("value 1 (leader): frequency 1/4"),
            "{report}"
        );
        assert!(report.contains("value 2: frequency 3/4"), "{report}");
        assert!(!report.contains("9223372036854775"), "{report}");
        assert!(report.contains("fibre census (ray [3, 1]):"), "{report}");
        assert!(!report.contains("BigInt"), "{report}");
    }

    #[test]
    fn zero_fault_horizon_is_rejected() {
        let a = args(&[
            "--graph", "ring:4", "--values", "1,2,3,4", "--drop", "0.2", "--until", "0",
        ]);
        let err = cmd_faults(&a).unwrap_err();
        assert!(err.0.contains("--until"), "{err}");
        let a = args(&["--n", "4", "--values", "1x4", "--until", "0"]);
        let err = cmd_churn(&a).unwrap_err();
        assert!(err.0.contains("--until"), "{err}");
        // The default horizon is still clamped to round 1 on a 1-round run.
        let a = args(&["--rounds", "1"]);
        assert_eq!(fault_horizon(&a, 1).unwrap(), 1);
        let a = args(&["--until", "7"]);
        assert_eq!(fault_horizon(&a, 300).unwrap(), 7);
    }

    #[test]
    fn faults_subcommand_runs() {
        let a = args(&[
            "--graph",
            "biring:6",
            "--values",
            "3,1,4,1,5,9",
            "--drop",
            "0.3",
            "--rounds",
            "200",
            "--seed",
            "7",
        ]);
        assert!(cmd_faults(&a).is_ok());
        // Negative control and JSON output paths.
        let a = args(&[
            "--graph",
            "biring:6",
            "--values",
            "3,1,4,1,5,9",
            "--drop",
            "0.3",
            "--rounds",
            "200",
            "--plain",
            "--json",
        ]);
        assert!(cmd_faults(&a).is_ok());
        // Crash specs: recover and stop, validated against n.
        let a = args(&[
            "--graph",
            "complete:4",
            "--values",
            "8,0,0,0",
            "--crash",
            "1:5:15,2:30:-",
        ]);
        assert!(cmd_faults(&a).is_ok());
        let a = args(&[
            "--graph", "ring:3", "--values", "1,2,3", "--crash", "9:5:15",
        ]);
        assert!(cmd_faults(&a).unwrap_err().0.contains("out of range"));
        let a = args(&[
            "--graph", "ring:3", "--values", "1,2,3", "--crash", "1:15:5",
        ]);
        assert!(cmd_faults(&a).unwrap_err().0.contains("empty"));
        let a = args(&["--graph", "ring:3", "--values", "1,2,3", "--drop", "1.5"]);
        assert!(cmd_faults(&a).is_err());
    }

    #[test]
    fn churn_subcommand_runs() {
        // Carry rejoin on the round-robin cover, no message faults.
        let a = args(&[
            "--n",
            "6",
            "--values",
            "3,1,4,1,5,9",
            "--fairness",
            "cover",
            "--churn",
            "c1:10:30",
            "--rounds",
            "200",
        ]);
        assert!(cmd_churn(&a).is_ok());
        // Reset rejoin + message drops + metropolis, JSON output path.
        let a = args(&[
            "--n",
            "6",
            "--values",
            "3,1,4,1,5,9",
            "--churn",
            "c1:10:30,2:20:45+reset",
            "--algo",
            "metropolis",
            "--drop",
            "0.2",
            "--rounds",
            "200",
            "--seed",
            "7",
            "--json",
        ]);
        assert!(cmd_churn(&a).is_ok());
        // Validation: fairness, algo, churn label, and window sanity.
        let a = args(&["--n", "4", "--values", "1,2,3,4", "--fairness", "lottery"]);
        assert!(cmd_churn(&a).unwrap_err().0.contains("unknown fairness"));
        let a = args(&["--n", "4", "--values", "1,2,3,4", "--algo", "gossip"]);
        assert!(cmd_churn(&a).unwrap_err().0.contains("unknown algorithm"));
        let a = args(&["--n", "4", "--values", "1,2,3,4", "--churn", "c9:5:15"]);
        assert!(cmd_churn(&a).unwrap_err().0.contains("out of range"));
        let a = args(&["--n", "4", "--values", "1,2,3,4", "--churn", "c1:15:5"]);
        assert!(cmd_churn(&a).unwrap_err().0.contains("empty"));
        let a = args(&["--n", "4", "--values", "1,2,3,4", "--churn", "bogus"]);
        assert!(cmd_churn(&a).is_err());
        let a = args(&["--n", "4", "--values", "1,2"]);
        assert!(cmd_churn(&a).unwrap_err().0.contains("values were given"));
    }

    #[test]
    fn profile_subcommand_writes_probe_streams() {
        // Probe streams are byte-identical across thread counts.
        let dir = std::env::temp_dir();
        let p1 = dir.join("kya-cli-test-probe1.ndjson");
        let p4 = dir.join("kya-cli-test-probe4.ndjson");
        for (path, t) in [(&p1, "1"), (&p4, "4")] {
            let a = args(&[
                "--smoke",
                "--threads",
                t,
                "--probe-out",
                &path.display().to_string(),
            ]);
            assert!(cmd_profile(&a).is_ok());
        }
        let s1 = std::fs::read(&p1).unwrap();
        let s4 = std::fs::read(&p4).unwrap();
        let _ = std::fs::remove_file(&p1);
        let _ = std::fs::remove_file(&p4);
        assert!(!s1.is_empty());
        assert_eq!(s1, s4, "probe stream depends on --threads");
        // Zero threads and a missing `--probe-out` are rejected.
        let a = args(&["--smoke", "--threads", "0", "--probe-out", "unused"]);
        assert!(cmd_profile(&a).unwrap_err().0.contains("positive"));
        let a = args(&["--smoke"]);
        assert!(cmd_profile(&a).unwrap_err().0.contains("--probe-out"));
    }

    #[test]
    fn pushsum_bound_below_n_is_rejected() {
        for bound in ["2", "0"] {
            let a = args(&["--n", "3", "--values", "1,2,3", "--bound", bound]);
            let err = cmd_pushsum(&a).unwrap_err();
            assert!(err.0.contains("at least n = 3"), "--bound {bound}: {err}");
        }
        let a = args(&["--n", "3", "--values", "1,2,3", "--bound", "x"]);
        assert!(cmd_pushsum(&a).unwrap_err().0.contains("a number"));
        let a = args(&[
            "--n", "3", "--values", "1,2,3", "--rounds", "50", "--bound", "3",
        ]);
        assert!(cmd_pushsum(&a).is_ok());
    }

    #[test]
    fn faults_zero_rounds_is_rejected() {
        let a = args(&["--graph", "ring:4", "--values", "1,2,3,4", "--rounds", "0"]);
        assert!(cmd_faults(&a).unwrap_err().0.contains("--rounds"));
    }

    #[test]
    fn bandwidth_zero_rounds_is_rejected() {
        let a = args(&[
            "--graph", "biring:4", "--values", "1,2,3,4", "--rounds", "0",
        ]);
        assert!(cmd_bandwidth(&a).unwrap_err().0.contains("--rounds"));
    }

    #[test]
    fn churn_zero_rounds_is_rejected() {
        let a = args(&["--n", "4", "--values", "1,2,3,4", "--rounds", "0"]);
        assert!(cmd_churn(&a).unwrap_err().0.contains("--rounds"));
    }

    #[test]
    fn sweep_delegates_to_the_registry() {
        assert!(cmd_sweep(&[]).is_ok(), "bare `kya sweep` lists experiments");
        let argv: Vec<String> = vec!["nope".into()];
        assert!(cmd_sweep(&argv).is_err(), "unknown experiment rejected");
        let argv: Vec<String> = vec!["f6".into(), "--bogus".into()];
        assert!(cmd_sweep(&argv).is_err(), "unknown sweep flag rejected");
        let argv: Vec<String> = vec!["f6".into(), "--engine".into(), "flat".into()];
        let err = cmd_sweep(&argv).unwrap_err();
        assert!(err.0.contains("--engine"), "{err}");
    }

    #[test]
    fn trace_writes_round_events() {
        assert!(cmd_trace(&[]).is_ok(), "bare `kya trace` lists experiments");
        let out = std::env::temp_dir().join("kya-cli-test-trace.ndjson");
        let argv: Vec<String> = vec![
            "f1".into(),
            "--sizes".into(),
            "4".into(),
            "--seeds".into(),
            "1".into(),
            "--trace-out".into(),
            out.display().to_string(),
        ];
        assert!(cmd_trace(&argv).is_ok());
        let trace = std::fs::read_to_string(&out).expect("trace file written");
        let _ = std::fs::remove_file(&out);
        assert!(!trace.is_empty(), "f1 cells emit round events");
        assert!(trace
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(trace.contains("\"residual\":"), "residual column present");
        let argv: Vec<String> = vec!["f1".into(), "--bogus".into()];
        assert!(cmd_trace(&argv).is_err(), "unknown trace flag rejected");
    }
}
