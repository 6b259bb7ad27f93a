//! Differential conformance oracles for the `kya` stack.
//!
//! Every algorithm in this workspace can be driven several ways — the
//! sequential [`Execution::step`], the sharded `step_parallel`, and
//! [`Execution::drive`] observed, sharded, or under a quiescent fault
//! plan — and, for the Push-Sum family, in two arithmetics (f64 and
//! exact [`BigRational`]). The
//! simulator's claims are only as good as those paths agreeing, so this
//! crate cross-checks them on a seeded matrix of topologies:
//!
//! - **paths** — byte-identical state streams across all execution
//!   entry points, every round ([`checks::CheckKind::Paths`]);
//! - **backend** — every f64 output lies inside a machine-checked
//!   directed-rounding enclosure ([`kya_arith::Enclosure`]) computed by
//!   the certified backend, escalating to lazily-normalized exact ℚ
//!   replay when an enclosure cannot certify its comparison; the
//!   `certified` variant runs the escalation-on-demand policy and the
//!   `exact` variant forces the full-ℚ baseline on every cell
//!   ([`checks::CheckKind::Backend`]). There is **no tolerance knob**:
//!   the heuristic `f64_tolerance` model survives only in the relabel /
//!   mass / churn oracles, where no certified twin runs;
//! - **relabel** — vertex-relabeling equivariance (anonymity: renaming
//!   agents must not change what they compute);
//! - **mass** — exact mass conservation under graph faults, and bounded
//!   f64 mass deficit under message faults with self-healing;
//! - **lift** — lift/base indistinguishability along a closed ring
//!   fibration (the paper's lifting lemma, §4.1);
//! - **churn** — mass conservation modulo the explicit reinjection
//!   ledger, frozen parked states, and quiescence/stabilization
//!   detection under the combined pairing + churn + faults stack
//!   ([`checks::CheckKind::Churn`]);
//! - **flat** — the flat SoA/CSR executor
//!   ([`kya_runtime::FlatExecution`]) bitwise identical to the boxed
//!   sequential executor at 1, 2 and 4 threads
//!   ([`checks::CheckKind::Flat`]);
//! - **probe** — the deterministic probe stream of a probed flat run
//!   (merged shard counters plus strided bit-exact sample digests)
//!   byte-identical at 1, 2 and 4 threads, with counters matching the
//!   routing plan's ground truth ([`checks::CheckKind::Probe`]);
//! - **bandwidth** — the bounded-bandwidth laws of the quantized
//!   variants: every payload lane a codeword below `2^b` (audited
//!   message by message), token mass conserved exactly in ℚ, f64
//!   outputs bitwise equal to exact token ratios inside the `ℚ_{2^b}`
//!   grid envelope, flat ≡ boxed with byte-identical ledgers, and the
//!   `b = ∞` rung bitwise identical to the uncapped baseline
//!   ([`checks::CheckKind::Bandwidth`]).
//!
//! The matrix reuses [`ExperimentSpec`]/[`Runner`]/[`ResultSink`], so
//! results are **byte-identical at any worker count** — `kya check
//! --ndjson` output can be diffed across `--workers` values, which the
//! CI conformance job does.
//!
//! [`Execution::step`]: kya_runtime::Execution::step
//! [`Execution::drive`]: kya_runtime::Execution::drive
//! [`BigRational`]: kya_arith::BigRational

pub mod checks;
pub mod fingerprint;
pub mod nets;

pub use checks::{f64_tolerance, CheckKind};
pub use fingerprint::Fingerprint;

use kya_harness::{ChurnSpec, ExperimentSpec, PlanSpec, ResultSink, Runner, SpecError};

/// How much of the conformance matrix to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Matrix {
    /// The tier-1 matrix: small sizes, one seed — fast enough for every
    /// `cargo test` and the CI conformance job.
    Small,
    /// The extended matrix: more sizes and seeds.
    Full,
}

impl Matrix {
    /// Parse a `--matrix` argument.
    ///
    /// # Errors
    ///
    /// [`SpecError`] for anything but `small` / `full`.
    pub fn parse(s: &str) -> Result<Matrix, SpecError> {
        match s {
            "small" => Ok(Matrix::Small),
            "full" => Ok(Matrix::Full),
            other => Err(SpecError(format!(
                "unknown matrix `{other}` (expected `small` or `full`)"
            ))),
        }
    }

    /// Network sizes swept (all even, so the lift oracle's `n/2`-fibre
    /// ring fibration is defined at every size).
    fn sizes(self) -> Vec<usize> {
        match self {
            Matrix::Small => vec![4, 6],
            Matrix::Full => vec![4, 6, 8, 12],
        }
    }

    fn seeds(self) -> Vec<u64> {
        match self {
            Matrix::Small => vec![1],
            Matrix::Full => vec![1, 2, 3],
        }
    }

    fn rounds(self) -> u64 {
        match self {
            Matrix::Small => 20,
            Matrix::Full => 40,
        }
    }
}

/// The check matrix: one [`ExperimentSpec`] per oracle kind, in the
/// fixed order `kya check` runs and reports them.
pub fn specs(matrix: Matrix) -> Vec<(CheckKind, ExperimentSpec)> {
    let sizes = matrix.sizes();
    let seeds = matrix.seeds();
    let rounds = matrix.rounds();
    // Churn scripts scale with the round budget: every window closes (or
    // permanently opens) by `3/4 · rounds`, leaving a quiescent tail for
    // the stabilization detector.
    let half = rounds / 2;
    let churn_variants: Vec<String> = [
        ChurnSpec::stable(),
        ChurnSpec::stable().leave(1, rounds / 4..half),
        ChurnSpec::stable()
            .leave(1, rounds / 4..half)
            .leave(2, rounds / 3..half + rounds / 4)
            .reset(),
        ChurnSpec::stable().depart(0, half),
    ]
    .iter()
    .map(ChurnSpec::label)
    .collect();
    vec![
        (
            CheckKind::Paths,
            ExperimentSpec::new("conformance-paths")
                .topologies([
                    "ring:{n}",
                    "star:{n}",
                    "instar:{n}",
                    "torus:{n}",
                    "periodic:{n}",
                    "dyn:{n}:{seed}",
                ])
                .sizes(sizes.clone())
                .seeds(seeds.clone())
                .algorithms([
                    "pushsum",
                    "metropolis",
                    "gossip",
                    "pushsum-freq",
                    "pushsum-leader",
                    "minbase",
                ])
                .rounds(rounds)
                .base_seed(0xc0f0_0001),
        ),
        (
            CheckKind::Backend,
            ExperimentSpec::new("conformance-backend")
                .topologies(["ring:{n}", "complete:{n}"])
                .sizes(sizes.clone())
                .seeds(seeds.clone())
                .algorithms(["pushsum", "frequency"])
                .variants(["certified", "exact"])
                .rounds(rounds)
                .base_seed(0xc0f0_0002),
        ),
        (
            CheckKind::Relabel,
            ExperimentSpec::new("conformance-relabel")
                .topologies(["ring:{n}", "star:{n}", "torus:{n}"])
                .sizes(sizes.clone())
                .seeds(seeds.clone())
                .algorithms(["gossip", "pushsum-exact", "pushsum"])
                .rounds(rounds)
                .base_seed(0xc0f0_0003),
        ),
        (
            CheckKind::Mass,
            ExperimentSpec::new("conformance-mass")
                .topologies(["ring:{n}", "biring:{n}"])
                .sizes(sizes.clone())
                .seeds(seeds.clone())
                .algorithms(["exact-graph-faults", "healing-message-faults"])
                .plans([PlanSpec::quiescent().drop_links(0.25).until(rounds / 2)])
                .rounds(rounds)
                .base_seed(0xc0f0_0004),
        ),
        (
            CheckKind::Lift,
            ExperimentSpec::new("conformance-lift")
                .topologies(["liftring:{n}"])
                .sizes(sizes.clone())
                .seeds(seeds.clone())
                .algorithms(["gossip", "pushsum-exact"])
                .rounds(rounds)
                .base_seed(0xc0f0_0005),
        ),
        (
            CheckKind::Churn,
            ExperimentSpec::new("conformance-churn")
                .topologies(["pair:{n}:uniform:{seed}", "pair:{n}:cover:{seed}"])
                .sizes(sizes.clone())
                .seeds(seeds.clone())
                .algorithms(["exact-mass", "healing-mass", "frozen-absence"])
                .variants(churn_variants)
                .plans([PlanSpec::quiescent().drop_links(0.25).until(half)])
                .rounds(rounds)
                .base_seed(0xc0f0_0006),
        ),
        (
            CheckKind::Flat,
            ExperimentSpec::new("conformance-flat")
                .topologies([
                    "ring:{n}",
                    "star:{n}",
                    "instar:{n}",
                    "torus:{n}",
                    "random:{n}:{n}:{seed}",
                ])
                .sizes(sizes.clone())
                .seeds(seeds.clone())
                .algorithms(["pushsum", "metropolis"])
                .rounds(rounds)
                .base_seed(0xc0f0_0007),
        ),
        (
            CheckKind::Probe,
            ExperimentSpec::new("conformance-probe")
                .topologies(["ring:{n}", "instar:{n}", "random:{n}:{n}:{seed}"])
                .sizes(sizes.clone())
                .seeds(seeds.clone())
                .algorithms(["pushsum", "metropolis"])
                .rounds(rounds)
                .base_seed(0xc0f0_0008),
        ),
        (
            // Symmetric topologies only: the quantized Metropolis
            // conservation law needs every link to be bidirectional.
            CheckKind::Bandwidth,
            ExperimentSpec::new("conformance-bandwidth")
                .topologies(["biring:{n}", "complete:{n}", "path:{n}"])
                .sizes(sizes)
                .seeds(seeds)
                .algorithms(["qpushsum", "qmetropolis"])
                .variants(["b1", "b2", "b4", "b8", "binf"])
                .rounds(rounds)
                .base_seed(0xc0f0_0009),
        ),
    ]
}

/// Run the whole matrix at the given worker count.
///
/// The returned sinks are in [`specs`] order; their NDJSON concatenation
/// is byte-identical for every `workers` value.
pub fn run(matrix: Matrix, workers: usize) -> Vec<(CheckKind, ResultSink)> {
    run_only(matrix, workers, None)
}

/// Like [`run`], restricted to one check kind when `only` is set — the
/// engine of `kya check --only <check>`, which lets CI run the expensive
/// full-matrix backend oracle without paying for the other checks.
pub fn run_only(
    matrix: Matrix,
    workers: usize,
    only: Option<CheckKind>,
) -> Vec<(CheckKind, ResultSink)> {
    specs(matrix)
        .into_iter()
        .filter(|(kind, _)| only.is_none_or(|o| o == *kind))
        .map(|(kind, spec)| {
            let sink = Runner::new(&spec).workers(workers).run(|ctx| kind.run(ctx));
            (kind, sink)
        })
        .collect()
}

/// The concatenated NDJSON stream of all sinks, in matrix order.
pub fn to_ndjson(results: &[(CheckKind, ResultSink)]) -> String {
    results.iter().map(|(_, sink)| sink.to_ndjson()).collect()
}

/// Whether every cell of every check passed.
pub fn all_ok(results: &[(CheckKind, ResultSink)]) -> bool {
    results.iter().all(|(_, sink)| sink.all_ok())
}

/// Total number of failed cells across all checks.
pub fn failure_count(results: &[(CheckKind, ResultSink)]) -> usize {
    results.iter().map(|(_, sink)| sink.failures().len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_parses() {
        assert_eq!(Matrix::parse("small").unwrap(), Matrix::Small);
        assert_eq!(Matrix::parse("full").unwrap(), Matrix::Full);
        assert!(Matrix::parse("medium").is_err());
    }

    #[test]
    fn specs_are_ordered_and_named() {
        let specs = specs(Matrix::Small);
        let kinds: Vec<CheckKind> = specs.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            kinds,
            vec![
                CheckKind::Paths,
                CheckKind::Backend,
                CheckKind::Relabel,
                CheckKind::Mass,
                CheckKind::Lift,
                CheckKind::Churn,
                CheckKind::Flat,
                CheckKind::Probe,
                CheckKind::Bandwidth,
            ]
        );
        for (_, spec) in &specs {
            assert!(spec.name().starts_with("conformance-"), "{}", spec.name());
            assert!(!spec.cells().is_empty(), "{}", spec.name());
        }
    }
}
