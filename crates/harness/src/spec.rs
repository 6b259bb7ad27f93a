//! Experiment specifications: axes, graph/value grammars, fault-plan
//! templates, and deterministic cell enumeration.
//!
//! Graph specs are `family:params`:
//!
//! | spec | graph |
//! |------|-------|
//! | `ring:N` | directed ring |
//! | `biring:N` | bidirectional ring |
//! | `star:N` | bidirectional star |
//! | `path:N` | bidirectional path |
//! | `complete:N` | complete digraph |
//! | `torus:RxC` / `torus:N` | directed torus (near-square for `N`) |
//! | `hypercube:D` | bidirectional hypercube |
//! | `debruijn:BxK` | de Bruijn graph |
//! | `kautz:BxK` | Kautz graph |
//! | `layered:GxS` | layered cycle of `G` groups of `S` |
//! | `random:N:EXTRA:SEED` | random strongly connected digraph |
//! | `randbi:N:EXTRA:SEED` | random connected bidirectional graph |
//!
//! In an [`ExperimentSpec`] topology axis, specs are *patterns*: the
//! placeholders `{n}` and `{seed}` are substituted from the size and
//! seed axes, so `ring:{n}` crossed with sizes `[4, 8]` enumerates
//! `ring:4` and `ring:8`. Labels the grammar does not know (for dynamic
//! networks, say) pass through verbatim for the experiment's cell
//! function to interpret.

use crate::args::Args;
use kya_graph::{generators, Digraph};
use kya_runtime::churn::{ChurnPlan, ChurnWindow, ReinjectPolicy};
use kya_runtime::faults::{CrashWindow, FaultPlan};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// A specification or flag parsing error with a human-oriented message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn err(msg: impl Into<String>) -> SpecError {
    SpecError(msg.into())
}

fn parse_num(s: &str, what: &str) -> Result<usize, SpecError> {
    s.parse()
        .map_err(|_| err(format!("invalid {what}: `{s}` is not a number")))
}

fn parse_pair(s: &str, what: &str) -> Result<(usize, usize), SpecError> {
    let (a, b) = s
        .split_once('x')
        .ok_or_else(|| err(format!("invalid {what}: expected AxB, got `{s}`")))?;
    Ok((parse_num(a, what)?, parse_num(b, what)?))
}

/// A size-like parameter that must be positive: a zero-size family
/// member has no agents (or no structure) to run on.
fn positive(value: usize, what: &str) -> Result<usize, SpecError> {
    if value == 0 {
        return Err(err(format!("invalid {what}: must be at least 1, got 0")));
    }
    Ok(value)
}

fn parse_size(s: &str, what: &str) -> Result<usize, SpecError> {
    positive(parse_num(s, what)?, what)
}

fn parse_positive_pair(s: &str, what: &str) -> Result<(usize, usize), SpecError> {
    let (a, b) = parse_pair(s, what)?;
    Ok((positive(a, what)?, positive(b, what)?))
}

/// The near-square factorization `r x c = n` with `r <= c` and `r`
/// maximal — what `torus:N` means (`n >= 1`).
fn near_square(n: usize) -> (usize, usize) {
    let mut r = (n as f64).sqrt() as usize;
    while r > 1 && !n.is_multiple_of(r) {
        r -= 1;
    }
    (r, n / r)
}

/// The most agents plus edges [`parse_graph`] builds: a spec whose
/// counts (computed from its parameters before anything is allocated)
/// exceed it is a typed error instead of an allocation abort. It admits
/// 10⁶-agent graphs such as `random:1000000:2000000:SEED` (4·10⁶).
pub const GRAPH_BUDGET: usize = 1 << 24;

/// Parse a graph spec (see module docs for the grammar).
///
/// # Errors
///
/// Returns a [`SpecError`] describing the problem, including specs over
/// [`GRAPH_BUDGET`].
pub fn parse_graph(spec: &str) -> Result<Digraph, SpecError> {
    let mut parts = spec.split(':');
    let family = parts.next().unwrap_or_default();
    let rest: Vec<&str> = parts.collect();
    let arg = |i: usize| -> Result<&str, SpecError> {
        rest.get(i)
            .copied()
            .ok_or_else(|| err(format!("`{family}` needs more parameters (got `{spec}`)")))
    };
    // Agent and edge counts, `None` on overflow.
    let budget = |agents: Option<usize>, edges: Option<usize>| -> Result<(), SpecError> {
        match agents.zip(edges).and_then(|(a, e)| a.checked_add(e)) {
            Some(total) if total <= GRAPH_BUDGET => Ok(()),
            _ => Err(err(format!(
                "graph `{spec}` is too large: over {GRAPH_BUDGET} agents plus edges"
            ))),
        }
    };
    let graph = match family {
        "ring" => {
            let n = parse_size(arg(0)?, "size")?;
            budget(Some(n), Some(n))?;
            generators::directed_ring(n)
        }
        "biring" => {
            let n = parse_size(arg(0)?, "size")?;
            budget(Some(n), n.checked_mul(2))?;
            generators::bidirectional_ring(n)
        }
        "star" => {
            let n = parse_size(arg(0)?, "size")?;
            budget(Some(n), (n - 1).checked_mul(2))?;
            generators::star(n)
        }
        "path" => {
            let n = parse_size(arg(0)?, "size")?;
            budget(Some(n), (n - 1).checked_mul(2))?;
            generators::bidirectional_path(n)
        }
        "complete" => {
            let n = parse_size(arg(0)?, "size")?;
            budget(Some(n), n.checked_mul(n - 1))?;
            generators::complete(n)
        }
        "torus" => {
            let (r, c) = if arg(0)?.contains('x') {
                parse_positive_pair(arg(0)?, "torus dimensions")?
            } else {
                near_square(parse_size(arg(0)?, "torus size")?)
            };
            let n = r.checked_mul(c);
            budget(n, n.and_then(|n| n.checked_mul(2)))?;
            generators::directed_torus(r, c)
        }
        "hypercube" => {
            let dim = parse_num(arg(0)?, "dimension")?;
            let n = u32::try_from(dim).ok().and_then(|d| 2usize.checked_pow(d));
            budget(n, n.and_then(|n| n.checked_mul(dim)))?;
            generators::hypercube(dim as u32)
        }
        "debruijn" => {
            let (b, k) = parse_positive_pair(arg(0)?, "de Bruijn parameters")?;
            let n = u32::try_from(k).ok().and_then(|k| b.checked_pow(k));
            budget(n, n.and_then(|n| n.checked_mul(b)))?;
            generators::de_bruijn(b, k as u32)
        }
        "kautz" => {
            let (b, k) = parse_pair(arg(0)?, "Kautz parameters")?;
            let b = positive(b, "Kautz parameters")?;
            let n = u32::try_from(k)
                .ok()
                .and_then(|k| b.checked_pow(k))
                .and_then(|p| p.checked_mul(b + 1));
            budget(n, n.and_then(|n| n.checked_mul(b)))?;
            generators::kautz(b, k as u32)
        }
        "layered" => {
            let (g, s) = parse_positive_pair(arg(0)?, "layered-cycle parameters")?;
            let n = g.checked_mul(s);
            budget(n, n.and_then(|n| n.checked_mul(s)))?;
            generators::layered_cycle(g, s)
        }
        "random" => {
            let n = parse_size(arg(0)?, "size")?;
            let extra = parse_num(arg(1)?, "extra edge count")?;
            let seed = parse_num(arg(2)?, "seed")? as u64;
            if n == 1 && extra > 0 {
                return Err(err(format!(
                    "graph `{spec}` asks for {extra} extra edges, but a single agent has none"
                )));
            }
            budget(Some(n), n.checked_add(extra))?;
            generators::random_strongly_connected(n, extra, seed)
        }
        "randbi" => {
            let n = parse_size(arg(0)?, "size")?;
            let extra = parse_num(arg(1)?, "extra pair count")?;
            let seed = parse_num(arg(2)?, "seed")? as u64;
            let free = generators::free_pairs(n);
            if extra > free {
                return Err(err(format!(
                    "graph `{spec}` asks for {extra} extra pairs, but only {free} pairs \
                     are free after the spanning tree"
                )));
            }
            budget(
                Some(n),
                (n - 1)
                    .checked_add(extra)
                    .and_then(|pairs| pairs.checked_mul(2)),
            )?;
            generators::random_bidirectional_connected(n, extra, seed)
        }
        other => {
            return Err(err(format!(
                "unknown graph family `{other}` (try ring, biring, star, path, complete, \
                 torus, hypercube, debruijn, kautz, layered, random, randbi)"
            )))
        }
    };
    Ok(graph)
}

/// Parse a comma-separated value list (`1,2,3`), optionally with `xK`
/// repetition (`5x3,7` = `5,5,5,7`).
///
/// # Errors
///
/// Returns a [`SpecError`] describing the problem, including lists
/// longer than [`GRAPH_BUDGET`] values (checked before a repeat is
/// expanded).
pub fn parse_values(spec: &str) -> Result<Vec<u64>, SpecError> {
    let mut out = Vec::new();
    for item in spec.split(',') {
        if item.is_empty() {
            continue;
        }
        match item.split_once('x') {
            Some((v, k)) => {
                let v: u64 = v.parse().map_err(|_| err(format!("invalid value `{v}`")))?;
                let k: usize = k
                    .parse()
                    .map_err(|_| err(format!("invalid repeat count `{k}`")))?;
                if out
                    .len()
                    .checked_add(k)
                    .is_none_or(|len| len > GRAPH_BUDGET)
                {
                    return Err(err(format!(
                        "value list `{spec}` is too long: over {GRAPH_BUDGET} values"
                    )));
                }
                out.extend(std::iter::repeat_n(v, k));
            }
            None => out.push(
                item.parse()
                    .map_err(|_| err(format!("invalid value `{item}`")))?,
            ),
        }
    }
    if out.is_empty() {
        return Err(err("empty value list"));
    }
    Ok(out)
}

/// The same `splitmix64` finalizer the fault plans use: cell seeds are
/// pure functions of the spec, never of scheduling.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------
// Fault-plan templates
// ---------------------------------------------------------------------

/// A serializable [`FaultPlan`] template: everything but the seed, which
/// is supplied per cell (or pinned with [`PlanSpec::with_seed`]).
///
/// This is the fault-plan *axis* of an [`ExperimentSpec`]: the same
/// template crossed with many cells yields independent (but
/// deterministic and replayable) fault coins per cell.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlanSpec {
    drop_p: f64,
    dup_p: f64,
    horizon: Option<u64>,
    crashes: Vec<CrashWindow>,
    seed: Option<u64>,
}

impl Default for PlanSpec {
    fn default() -> PlanSpec {
        PlanSpec::quiescent()
    }
}

impl PlanSpec {
    /// A template injecting no faults.
    pub fn quiescent() -> PlanSpec {
        PlanSpec {
            drop_p: 0.0,
            dup_p: 0.0,
            horizon: None,
            crashes: Vec::new(),
            seed: None,
        }
    }

    /// Drop each non-self-loop link i.i.d. with probability `p`.
    pub fn drop_links(mut self, p: f64) -> PlanSpec {
        self.drop_p = p;
        self
    }

    /// Deliver each surviving link twice with probability `p`.
    pub fn duplicate(mut self, p: f64) -> PlanSpec {
        self.dup_p = p;
        self
    }

    /// Probabilistic link faults cease after round `last`.
    pub fn until(mut self, last: u64) -> PlanSpec {
        self.horizon = Some(last);
        self
    }

    /// Crash `agent` for the rounds in `window` (crash-recover).
    pub fn crash(mut self, agent: usize, window: Range<u64>) -> PlanSpec {
        self.crashes.push(CrashWindow {
            agent,
            from: window.start,
            until: Some(window.end),
        });
        self
    }

    /// Crash `agent` at round `from`, permanently (crash-stop).
    pub fn crash_stop(mut self, agent: usize, from: u64) -> PlanSpec {
        self.crashes.push(CrashWindow {
            agent,
            from,
            until: None,
        });
        self
    }

    /// Pin the fault-coin seed instead of deriving it per cell (what the
    /// single-run `kya faults` adapter wants).
    pub fn with_seed(mut self, seed: u64) -> PlanSpec {
        self.seed = Some(seed);
        self
    }

    /// Whether the template injects no faults at all.
    pub fn is_quiescent(&self) -> bool {
        self.drop_p == 0.0 && self.dup_p == 0.0 && self.crashes.is_empty()
    }

    /// The per-round link-drop probability.
    pub fn drop_rate(&self) -> f64 {
        self.drop_p
    }

    /// The scripted crash windows.
    pub fn crashes(&self) -> &[CrashWindow] {
        &self.crashes
    }

    /// A short deterministic label for result records, e.g.
    /// `p0.3+c2` or `quiescent`.
    pub fn label(&self) -> String {
        if self.is_quiescent() {
            return "quiescent".to_string();
        }
        let mut parts = Vec::new();
        if self.drop_p > 0.0 {
            parts.push(format!("p{}", self.drop_p));
        }
        if self.dup_p > 0.0 {
            parts.push(format!("d{}", self.dup_p));
        }
        if !self.crashes.is_empty() {
            parts.push(format!("c{}", self.crashes.len()));
        }
        parts.join("+")
    }

    /// Instantiate the template as a concrete [`FaultPlan`], seeding the
    /// coins with the pinned seed if any, else `cell_seed`.
    pub fn build(&self, cell_seed: u64) -> FaultPlan {
        let mut plan = FaultPlan::new(self.seed.unwrap_or(cell_seed));
        if self.drop_p > 0.0 {
            plan = plan.drop_links(self.drop_p);
        }
        if self.dup_p > 0.0 {
            plan = plan.duplicate(self.dup_p);
        }
        if let Some(h) = self.horizon {
            plan = plan.until(h);
        }
        for w in &self.crashes {
            plan = match w.until {
                Some(until) => plan.crash(w.agent, w.from..until),
                None => plan.crash_stop(w.agent, w.from),
            };
        }
        plan
    }
}

// ---------------------------------------------------------------------
// Churn-plan templates
// ---------------------------------------------------------------------

/// A serializable [`ChurnPlan`] template, mirroring [`PlanSpec`]:
/// everything but the seed, which is supplied per cell (or pinned with
/// [`ChurnSpec::with_seed`]).
///
/// Unlike the fault templates, churn templates ride the **variant axis**
/// of an [`ExperimentSpec`] as labels (the NDJSON schema is unchanged),
/// so the label grammar is round-trippable: [`ChurnSpec::label`] and
/// [`ChurnSpec::parse`] are inverses, and a cell function reconstructs
/// the template from its `variant` string.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChurnSpec {
    windows: Vec<ChurnWindow>,
    policy: ReinjectPolicy,
    seed: Option<u64>,
}

impl Default for ChurnSpec {
    fn default() -> ChurnSpec {
        ChurnSpec::stable()
    }
}

impl ChurnSpec {
    /// A template scripting no churn.
    pub fn stable() -> ChurnSpec {
        ChurnSpec {
            windows: Vec::new(),
            policy: ReinjectPolicy::Carry,
            seed: None,
        }
    }

    /// `agent` is absent for the rounds in `window` (leave + rejoin).
    pub fn leave(mut self, agent: usize, window: Range<u64>) -> ChurnSpec {
        self.windows.push(ChurnWindow {
            agent,
            leave: window.start,
            rejoin: Some(window.end),
        });
        self
    }

    /// `agent` leaves at round `from` and never comes back.
    pub fn depart(mut self, agent: usize, from: u64) -> ChurnSpec {
        self.windows.push(ChurnWindow {
            agent,
            leave: from,
            rejoin: None,
        });
        self
    }

    /// Rejoining agents get a fresh state ([`ReinjectPolicy::Reset`]).
    pub fn reset(mut self) -> ChurnSpec {
        self.policy = ReinjectPolicy::Reset;
        self
    }

    /// Rejoining agents resume from their parked state
    /// ([`ReinjectPolicy::Carry`], the default).
    pub fn carry(mut self) -> ChurnSpec {
        self.policy = ReinjectPolicy::Carry;
        self
    }

    /// Pin the plan seed instead of deriving it per cell.
    pub fn with_seed(mut self, seed: u64) -> ChurnSpec {
        self.seed = Some(seed);
        self
    }

    /// Whether the template scripts no churn.
    pub fn is_stable(&self) -> bool {
        self.windows.is_empty()
    }

    /// The scripted absence windows.
    pub fn windows(&self) -> &[ChurnWindow] {
        &self.windows
    }

    /// The mass re-injection policy.
    pub fn policy(&self) -> ReinjectPolicy {
        self.policy
    }

    /// A deterministic, parseable label: `stable`, or `c` followed by
    /// comma-joined `AGENT:LEAVE:REJOIN` windows (`-` for a permanent
    /// departure), with `+reset` appended under the reset policy — e.g.
    /// `c2:10:40,5:20:-+reset`. Inverse of [`ChurnSpec::parse`]; a
    /// pinned seed is not part of the label.
    pub fn label(&self) -> String {
        if self.is_stable() {
            return "stable".to_string();
        }
        let windows: Vec<String> = self
            .windows
            .iter()
            .map(|w| {
                let rejoin = w.rejoin.map_or_else(|| "-".to_string(), |r| r.to_string());
                format!("{}:{}:{}", w.agent, w.leave, rejoin)
            })
            .collect();
        let suffix = match self.policy {
            ReinjectPolicy::Carry => "",
            ReinjectPolicy::Reset => "+reset",
        };
        format!("c{}{suffix}", windows.join(","))
    }

    /// Parse a [`ChurnSpec::label`] back into a template.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] describing the malformed part.
    pub fn parse(label: &str) -> Result<ChurnSpec, SpecError> {
        if label == "stable" {
            return Ok(ChurnSpec::stable());
        }
        let body = label.strip_prefix('c').ok_or_else(|| {
            err(format!(
                "churn label must be `stable` or start with `c`: `{label}`"
            ))
        })?;
        let (body, policy) = match body.strip_suffix("+reset") {
            Some(b) => (b, ReinjectPolicy::Reset),
            None => (body, ReinjectPolicy::Carry),
        };
        let mut spec = ChurnSpec::stable();
        spec.policy = policy;
        for part in body.split(',') {
            let fields: Vec<&str> = part.split(':').collect();
            let [agent, leave, rejoin] = fields.as_slice() else {
                return Err(err(format!(
                    "churn window must be AGENT:LEAVE:REJOIN, got `{part}`"
                )));
            };
            let agent = parse_num(agent, "churn agent")?;
            let leave = parse_num(leave, "churn leave round")? as u64;
            let rejoin = if *rejoin == "-" {
                None
            } else {
                Some(parse_num(rejoin, "churn rejoin round")? as u64)
            };
            spec.windows.push(ChurnWindow {
                agent,
                leave,
                rejoin,
            });
        }
        Ok(spec)
    }

    /// Instantiate the template as a concrete [`ChurnPlan`], using the
    /// pinned seed if any, else `cell_seed`.
    pub fn build(&self, cell_seed: u64) -> ChurnPlan {
        let mut plan = ChurnPlan::new(self.seed.unwrap_or(cell_seed)).policy(self.policy);
        for w in &self.windows {
            plan = match w.rejoin {
                Some(rejoin) => plan.leave(w.agent, w.leave..rejoin),
                None => plan.depart(w.agent, w.leave),
            };
        }
        plan
    }
}

// ---------------------------------------------------------------------
// Experiment specifications
// ---------------------------------------------------------------------

/// The sweep flags every harness-driven binary understands; pass to
/// [`Args::reject_unknown`] (plus any experiment-specific extras).
pub const SWEEP_FLAGS: &[&str] = &[
    "topologies",
    "sizes",
    "seeds",
    "seed",
    "rounds",
    "eps",
    "workers",
    "ndjson",
    "json",
];

/// A declarative experiment: cartesian axes (topology × size × seed ×
/// algorithm × variant × fault plan) plus shared run parameters.
///
/// Axes left empty contribute a single neutral element, so the cell
/// enumeration is always the full cartesian product in a fixed order —
/// the order (and each cell's derived seed) depends only on the spec,
/// never on worker scheduling.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentSpec {
    name: String,
    topologies: Vec<String>,
    sizes: Vec<usize>,
    seeds: Vec<u64>,
    algorithms: Vec<String>,
    variants: Vec<String>,
    plans: Vec<PlanSpec>,
    rounds: u64,
    eps: f64,
    base_seed: u64,
}

/// One enumerated cell of an [`ExperimentSpec`]: the resolved axis
/// values plus the derived per-cell seed.
#[derive(Clone, Debug, PartialEq)]
pub struct CellSpec {
    /// Position in the spec's enumeration order.
    pub index: usize,
    /// Resolved topology label (`{n}` / `{seed}` substituted).
    pub topology: String,
    /// The size-axis value (0 when the spec has no size axis).
    pub n: usize,
    /// The seed-axis value.
    pub seed: u64,
    /// The algorithm-axis label.
    pub algorithm: String,
    /// The variant-axis label (experiment-specific sub-axis).
    pub variant: String,
    /// The fault-plan template for this cell.
    pub plan: PlanSpec,
    /// Deterministic per-cell seed: a pure function of the spec's base
    /// seed, this cell's seed-axis value, and the cell index.
    pub cell_seed: u64,
}

impl ExperimentSpec {
    /// A new spec with no axes, 1000 rounds, ε = 1e-6, base seed 42.
    pub fn new(name: impl Into<String>) -> ExperimentSpec {
        ExperimentSpec {
            name: name.into(),
            topologies: Vec::new(),
            sizes: Vec::new(),
            seeds: Vec::new(),
            algorithms: Vec::new(),
            variants: Vec::new(),
            plans: Vec::new(),
            rounds: 1000,
            eps: 1e-6,
            base_seed: 42,
        }
    }

    /// Set the topology axis (label patterns; `{n}`, `{seed}`
    /// placeholders).
    pub fn topologies<I, S>(mut self, t: I) -> ExperimentSpec
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.topologies = t.into_iter().map(Into::into).collect();
        self
    }

    /// Set the size axis.
    pub fn sizes(mut self, s: impl IntoIterator<Item = usize>) -> ExperimentSpec {
        self.sizes = s.into_iter().collect();
        self
    }

    /// Set the seed axis.
    pub fn seeds(mut self, s: impl IntoIterator<Item = u64>) -> ExperimentSpec {
        self.seeds = s.into_iter().collect();
        self
    }

    /// Set the algorithm axis.
    pub fn algorithms<I, S>(mut self, a: I) -> ExperimentSpec
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.algorithms = a.into_iter().map(Into::into).collect();
        self
    }

    /// Set the variant axis (experiment-specific sub-axis, e.g. the
    /// centralized-help rows of the tables or an ε sweep).
    pub fn variants<I, S>(mut self, v: I) -> ExperimentSpec
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.variants = v.into_iter().map(Into::into).collect();
        self
    }

    /// Set the fault-plan axis.
    pub fn plans(mut self, p: impl IntoIterator<Item = PlanSpec>) -> ExperimentSpec {
        self.plans = p.into_iter().collect();
        self
    }

    /// Set the round budget shared by all cells.
    pub fn rounds(mut self, r: u64) -> ExperimentSpec {
        self.rounds = r;
        self
    }

    /// Set the convergence tolerance shared by all cells.
    pub fn eps(mut self, e: f64) -> ExperimentSpec {
        self.eps = e;
        self
    }

    /// Set the base seed from which per-cell seeds derive.
    pub fn base_seed(mut self, s: u64) -> ExperimentSpec {
        self.base_seed = s;
        self
    }

    /// Override axes and parameters from parsed sweep flags:
    /// `--topologies`, `--sizes`, `--seeds`, `--seed` (base seed; also
    /// the seed axis unless `--seeds` is given), `--rounds`, `--eps`.
    ///
    /// This is the one place the CLI and every bench binary map flags
    /// onto a spec.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] for malformed numbers.
    pub fn with_args(mut self, args: &Args) -> Result<ExperimentSpec, SpecError> {
        if let Some(t) = args.optional("topologies") {
            self.topologies = t
                .split(',')
                .filter(|s| !s.is_empty())
                .map(String::from)
                .collect();
        }
        self.sizes = args.usize_list_flag("sizes", &self.sizes)?;
        if let Some(s) = args.optional("seeds") {
            self.seeds = s
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|item| {
                    item.parse()
                        .map_err(|_| err(format!("--seeds entries must be numbers, got `{item}`")))
                })
                .collect::<Result<Vec<u64>, _>>()?;
        }
        if args.optional("seed").is_some() {
            let s = args.u64_flag("seed", self.base_seed)?;
            self.base_seed = s;
            if args.optional("seeds").is_none() {
                self.seeds = vec![s];
            }
        }
        self.rounds = args.u64_flag("rounds", self.rounds)?;
        self.eps = args.f64_flag("eps", self.eps)?;
        Ok(self)
    }

    /// The experiment name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shared round budget.
    pub fn round_budget(&self) -> u64 {
        self.rounds
    }

    /// The shared convergence tolerance.
    pub fn tolerance(&self) -> f64 {
        self.eps
    }

    /// The base seed.
    pub fn seed(&self) -> u64 {
        self.base_seed
    }

    /// The size axis as configured (may be empty).
    pub fn size_axis(&self) -> &[usize] {
        &self.sizes
    }

    /// The seed axis as configured (may be empty; defaults to the base
    /// seed during enumeration).
    pub fn seed_axis(&self) -> &[u64] {
        &self.seeds
    }

    /// The distinct resolved topology labels, in first-appearance order
    /// (what a runner pre-warms the cache with).
    pub fn topology_labels(&self) -> Vec<String> {
        let mut labels = Vec::new();
        for c in self.cells() {
            if !labels.contains(&c.topology) {
                labels.push(c.topology);
            }
        }
        labels
    }

    /// Enumerate every cell in the fixed axis order: topology (outer) ×
    /// size × seed × algorithm × variant × plan (inner).
    pub fn cells(&self) -> Vec<CellSpec> {
        fn or_neutral<T: Clone>(axis: &[T], neutral: T) -> Vec<T> {
            if axis.is_empty() {
                vec![neutral]
            } else {
                axis.to_vec()
            }
        }
        let topologies = or_neutral(&self.topologies, String::new());
        let sizes = or_neutral(&self.sizes, 0);
        let seeds = or_neutral(&self.seeds, self.base_seed);
        let algorithms = or_neutral(&self.algorithms, String::new());
        let variants = or_neutral(&self.variants, String::new());
        let plans = or_neutral(&self.plans, PlanSpec::quiescent());

        let mut out = Vec::new();
        let mut index = 0;
        for pattern in &topologies {
            for &n in &sizes {
                for &seed in &seeds {
                    for algorithm in &algorithms {
                        for variant in &variants {
                            for plan in &plans {
                                let topology = pattern
                                    .replace("{n}", &n.to_string())
                                    .replace("{seed}", &seed.to_string());
                                let mut h = mix(self.base_seed ^ 0x6b79_615f_6877_7373);
                                h = mix(h.wrapping_add(seed));
                                let cell_seed = mix(h.wrapping_add(index as u64));
                                out.push(CellSpec {
                                    index,
                                    topology,
                                    n,
                                    seed,
                                    algorithm: algorithm.clone(),
                                    variant: variant.clone(),
                                    plan: plan.clone(),
                                    cell_seed,
                                });
                                index += 1;
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_specs_parse() {
        assert_eq!(parse_graph("ring:5").unwrap().n(), 5);
        assert_eq!(parse_graph("biring:4").unwrap().edge_count(), 8);
        assert_eq!(parse_graph("torus:2x3").unwrap().n(), 6);
        assert_eq!(parse_graph("hypercube:3").unwrap().n(), 8);
        assert_eq!(parse_graph("debruijn:2x2").unwrap().n(), 4);
        assert_eq!(parse_graph("kautz:2x1").unwrap().n(), 6);
        assert_eq!(parse_graph("random:7:3:42").unwrap().n(), 7);
        assert_eq!(parse_graph("randbi:7:2:1").unwrap().n(), 7);
        assert_eq!(parse_graph("star:5").unwrap().outdegree(0), 4);
        assert_eq!(parse_graph("layered:3x4").unwrap().n(), 12);
    }

    /// Assert `spec` is rejected with a message naming the zero.
    fn rejects_zero(spec: &str) {
        let e = parse_graph(spec).expect_err(spec);
        assert!(e.0.contains("at least 1"), "{spec}: {e}");
    }

    #[test]
    fn zero_size_rings_are_rejected() {
        rejects_zero("ring:0");
        rejects_zero("biring:0");
    }

    #[test]
    fn zero_size_star_and_path_are_rejected() {
        rejects_zero("star:0");
        rejects_zero("path:0");
    }

    #[test]
    fn zero_size_complete_is_rejected() {
        rejects_zero("complete:0");
    }

    #[test]
    fn zero_size_tori_are_rejected() {
        rejects_zero("torus:0");
        rejects_zero("torus:0x4");
        rejects_zero("torus:4x0");
    }

    #[test]
    fn zero_parameter_de_bruijn_kautz_layered_are_rejected() {
        rejects_zero("debruijn:0x2");
        rejects_zero("debruijn:2x0");
        rejects_zero("kautz:0x2");
        rejects_zero("layered:0x3");
        rejects_zero("layered:3x0");
        // Kautz words of length 0 are a legitimate (complete) graph.
        assert_eq!(parse_graph("kautz:2x0").unwrap().n(), 3);
    }

    #[test]
    fn zero_size_random_graphs_are_rejected() {
        rejects_zero("random:0:3:1");
        rejects_zero("randbi:0:3:1");
    }

    /// Assert `spec` is rejected by the graph budget, before allocating.
    fn rejects_over_budget(spec: &str) {
        let e = parse_graph(spec).expect_err(spec);
        assert!(e.0.contains("too large"), "{spec}: {e}");
    }

    #[test]
    fn hypercube_over_budget_is_rejected() {
        rejects_over_budget("hypercube:30");
        rejects_over_budget("hypercube:64");
        assert_eq!(parse_graph("hypercube:10").unwrap().n(), 1024);
    }

    #[test]
    fn complete_over_budget_is_rejected() {
        rejects_over_budget("complete:1000000");
        assert_eq!(parse_graph("complete:100").unwrap().edge_count(), 9900);
    }

    #[test]
    fn de_bruijn_over_budget_is_rejected() {
        rejects_over_budget("debruijn:2x40");
        rejects_over_budget("debruijn:1000x1000");
        rejects_over_budget("kautz:2x40");
    }

    #[test]
    fn budget_admits_the_million_agent_sweeps() {
        for spec in ["random:1000000:2000000:7", "torus:1000000", "ring:1000000"] {
            assert_eq!(parse_graph(spec).unwrap().n(), 1_000_000, "{spec}");
        }
        rejects_over_budget("random:1000000:100000000:7");
    }

    /// Assert `spec` is rejected for asking more extra links than fit.
    fn rejects_over_capacity(spec: &str) {
        let e = parse_graph(spec).expect_err(spec);
        assert!(e.0.contains("extra"), "{spec}: {e}");
    }

    #[test]
    fn randbi_with_no_free_pair_on_two_agents_is_rejected() {
        rejects_over_capacity("randbi:2:1:1");
        assert_eq!(parse_graph("randbi:2:0:1").unwrap().edge_count(), 2);
    }

    #[test]
    fn randbi_over_capacity_on_three_agents_is_rejected() {
        rejects_over_capacity("randbi:3:2:1");
        assert_eq!(parse_graph("randbi:3:1:1").unwrap().edge_count(), 6);
    }

    #[test]
    fn randbi_over_capacity_on_four_agents_is_rejected() {
        rejects_over_capacity("randbi:4:4:1");
        // Three free pairs: the spanning tree plus all of them is K4.
        assert_eq!(parse_graph("randbi:4:3:1").unwrap().edge_count(), 12);
    }

    #[test]
    fn randbi_single_agent_extra_pair_is_rejected() {
        rejects_over_capacity("randbi:1:1:1");
        assert_eq!(parse_graph("randbi:1:0:1").unwrap().edge_count(), 0);
    }

    #[test]
    fn random_single_agent_extra_edges_are_rejected() {
        rejects_over_capacity("random:1:5:1");
        assert_eq!(parse_graph("random:1:0:1").unwrap().edge_count(), 1);
    }

    #[test]
    fn torus_single_size_factorizes_near_square() {
        // torus:12 = the 3x4 torus (same graph the old F6 hard-coded).
        let a = parse_graph("torus:12").unwrap();
        let b = parse_graph("torus:3x4").unwrap();
        assert_eq!(a.multiplicity_matrix(), b.multiplicity_matrix());
        assert_eq!(parse_graph("torus:9").unwrap().n(), 9); // 3x3
        assert_eq!(parse_graph("torus:5").unwrap().n(), 5); // 1x5 ring
    }

    #[test]
    fn graph_spec_errors() {
        assert!(parse_graph("nonsense:3").is_err());
        assert!(parse_graph("ring").is_err());
        assert!(parse_graph("torus:axb").is_err());
        assert!(parse_graph("random:5:1").is_err());
        assert!(parse_graph("ring:xyz").is_err());
    }

    #[test]
    fn value_specs_parse() {
        assert_eq!(parse_values("1,2,3").unwrap(), vec![1, 2, 3]);
        assert_eq!(parse_values("5x3,7").unwrap(), vec![5, 5, 5, 7]);
        assert_eq!(parse_values("0x2").unwrap(), vec![0, 0]);
        assert!(parse_values("").is_err());
        assert!(parse_values("a,b").is_err());
        assert!(parse_values("1x").is_err());
    }

    #[test]
    fn value_repeat_over_budget_is_rejected() {
        // 2^32 copies: once a 32 GiB allocation abort.
        let e = parse_values("1x4294967296").unwrap_err();
        assert!(e.0.contains("too long"), "{e}");
        // The running length counts too.
        assert!(parse_values("1x16777216").is_ok());
        assert!(parse_values("1x16777216,2x1").is_err());
        assert!(parse_values("2x1,1x16777216").is_err());
    }

    #[test]
    fn value_repeat_overflow_is_rejected() {
        // usize::MAX copies: once a capacity-overflow panic.
        let e = parse_values("1x18446744073709551615").unwrap_err();
        assert!(e.0.contains("too long"), "{e}");
        assert!(parse_values("1,1x18446744073709551615").is_err());
    }

    #[test]
    fn cells_enumerate_the_cartesian_product() {
        let spec = ExperimentSpec::new("t")
            .topologies(["ring:{n}", "torus:{n}"])
            .sizes([4, 6])
            .algorithms(["a", "b"]);
        let cells = spec.cells();
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0].topology, "ring:4");
        assert_eq!(cells[0].algorithm, "a");
        assert_eq!(cells[1].algorithm, "b");
        assert_eq!(cells[2].topology, "ring:6");
        assert_eq!(cells[4].topology, "torus:4");
        // Indices are the enumeration order.
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
        assert_eq!(
            spec.topology_labels(),
            vec!["ring:4", "ring:6", "torus:4", "torus:6"]
        );
    }

    #[test]
    fn cell_seeds_are_deterministic_and_distinct() {
        let spec = ExperimentSpec::new("t")
            .topologies(["ring:{n}"])
            .sizes([4, 6, 8])
            .base_seed(7);
        let a = spec.cells();
        let b = spec.cells();
        assert_eq!(a, b, "pure function of the spec");
        let seeds: Vec<u64> = a.iter().map(|c| c.cell_seed).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "distinct per cell");
        // A different base seed shifts every cell seed.
        let other = ExperimentSpec::new("t")
            .topologies(["ring:{n}"])
            .sizes([4, 6, 8])
            .base_seed(8);
        assert!(other
            .cells()
            .iter()
            .zip(&a)
            .all(|(x, y)| x.cell_seed != y.cell_seed));
    }

    #[test]
    fn seed_placeholder_resolves() {
        let spec = ExperimentSpec::new("t")
            .topologies(["random:{n}:8:{seed}"])
            .sizes([12])
            .seeds([99]);
        assert_eq!(spec.cells()[0].topology, "random:12:8:99");
    }

    #[test]
    fn with_args_overrides_axes() {
        let argv: Vec<String> = ["--sizes", "3,5", "--seed", "9", "--rounds", "77"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let args = Args::parse(&argv);
        let spec = ExperimentSpec::new("t")
            .topologies(["ring:{n}"])
            .sizes([4])
            .with_args(&args)
            .unwrap();
        assert_eq!(spec.size_axis(), &[3, 5]);
        assert_eq!(spec.seed(), 9);
        assert_eq!(spec.seed_axis(), &[9]);
        assert_eq!(spec.round_budget(), 77);
        let cells = spec.cells();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].topology, "ring:3");
    }

    #[test]
    fn plan_spec_builds_and_labels() {
        let p = PlanSpec::quiescent();
        assert_eq!(p.label(), "quiescent");
        assert!(p.build(5).is_quiescent());
        let p = PlanSpec::quiescent()
            .drop_links(0.3)
            .until(60)
            .crash(1, 10..30)
            .crash(2, 20..40);
        assert_eq!(p.label(), "p0.3+c2");
        let plan = p.build(5);
        assert_eq!(plan.seed(), 5);
        assert_eq!(plan.drop_rate(), 0.3);
        assert_eq!(plan.horizon(), Some(60));
        assert_eq!(plan.crashes().len(), 2);
        // A pinned seed wins over the cell seed.
        assert_eq!(p.with_seed(77).build(5).seed(), 77);
    }

    #[test]
    fn plan_spec_roundtrips_through_json() {
        let p = PlanSpec::quiescent()
            .drop_links(0.25)
            .duplicate(0.1)
            .until(50)
            .crash_stop(3, 12);
        let json = serde::to_json_string(&p);
        let back: PlanSpec = serde::from_json_str(&json).expect("parses");
        assert_eq!(back, p);
    }

    #[test]
    fn churn_spec_builds_labels_and_parses_back() {
        let s = ChurnSpec::stable();
        assert_eq!(s.label(), "stable");
        assert!(s.build(5).is_quiescent());
        assert_eq!(ChurnSpec::parse("stable").unwrap(), s);

        let s = ChurnSpec::stable().leave(2, 10..40).depart(5, 20).reset();
        assert_eq!(s.label(), "c2:10:40,5:20:-+reset");
        assert_eq!(
            ChurnSpec::parse(&s.label()).unwrap(),
            s,
            "label round-trips"
        );
        let plan = s.build(9);
        assert_eq!(plan.seed(), 9);
        assert_eq!(plan.windows().len(), 2);
        assert_eq!(plan.reinject_policy(), ReinjectPolicy::Reset);
        assert_eq!(s.with_seed(77).build(9).seed(), 77, "pinned seed wins");

        let carry = ChurnSpec::stable().leave(0, 1..3);
        assert_eq!(carry.label(), "c0:1:3");
        assert_eq!(ChurnSpec::parse("c0:1:3").unwrap(), carry);

        assert!(ChurnSpec::parse("nonsense").is_err());
        assert!(ChurnSpec::parse("c1:2").is_err());
        assert!(ChurnSpec::parse("c1:x:3").is_err());
    }

    #[test]
    fn churn_spec_roundtrips_through_json() {
        let s = ChurnSpec::stable().leave(1, 5..9).depart(3, 30).reset();
        let json = serde::to_json_string(&s);
        let back: ChurnSpec = serde::from_json_str(&json).expect("parses");
        assert_eq!(back, s);
    }
}
