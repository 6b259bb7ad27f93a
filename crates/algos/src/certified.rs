//! Certification points of the certified backend: run on machine-checked
//! [`Enclosure`]s, escalate to ℚ only when an enclosure cannot decide.
//!
//! Push-Sum, frequency Push-Sum and Metropolis are each one algorithm
//! generic over a [`Scalar`](kya_arith::Scalar), instantiated on four
//! scalars that form a three-rung ladder:
//!
//! 1. **f64** (`PushSum`, `PushSumFrequency::frequency()`, `Metropolis`)
//!    — fast, no guarantees;
//! 2. **certified** (`PushSum::<Enclosure>::new()`,
//!    `PushSumFrequency::<Enclosure>::new(None)`,
//!    `Metropolis::<Enclosure>::new()`) — the same dynamics on
//!    directed-rounding intervals. Every real value *and* every
//!    round-to-nearest f64 trajectory of the algorithm lies inside the
//!    per-agent enclosure (see [`kya_arith::interval`] for the lemma), so
//!    the enclosure both certifies the f64 run and bounds its error, at a
//!    small constant factor over plain f64;
//! 3. **exact ℚ** (`BigRational`) — escalated to only when an enclosure
//!    cannot decide a pending comparison (a convergence threshold, an
//!    α-safety sign, a frequency-table tie). The escalated path runs on
//!    [`LazyRational`](kya_arith::LazyRational) — denominator-gcd-only
//!    additions, full gcd normalization deferred to the output projection
//!    — whose outputs are *bit-identical* to the eager `BigRational`
//!    instance.
//!
//! This module holds what the ladder adds on top of the algorithms: the
//! escalation counter and the certified convergence test.

use kya_arith::{Certainty, Enclosure};

// ---------------------------------------------------------------------
// Certification points
// ---------------------------------------------------------------------

/// How many certifications a certified run attempted and how many had to
/// escalate to exact arithmetic. The escalation *rate* is the cost model
/// of the certified backend: ℚ work is paid `escalations` times, not
/// once per operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EscalationStats {
    /// Comparisons the enclosures were asked to decide.
    pub certifications: u64,
    /// Comparisons the enclosures could not decide (escalated to ℚ).
    pub escalations: u64,
}

impl EscalationStats {
    /// Record one certification attempt; `decided = false` escalates.
    pub fn record(&mut self, decided: bool) {
        self.certifications += 1;
        if !decided {
            self.escalations += 1;
        }
    }

    /// Escalations per certification (0 when none were attempted).
    pub fn rate(&self) -> f64 {
        if self.certifications == 0 {
            0.0
        } else {
            self.escalations as f64 / self.certifications as f64
        }
    }
}

/// Certified convergence test: is the spread `max − min` of the outputs
/// provably at most `eps` (`Certain(true)`), provably above
/// (`Certain(false)`), or undecidable at this enclosure width
/// (`Unknown` — the convergence-test escalation point)?
pub fn certify_spread_below(outputs: &[Enclosure], eps: f64) -> Certainty {
    if outputs.is_empty() {
        return Certainty::Certain(true);
    }
    let mut lo_min = f64::INFINITY;
    let mut lo_max = f64::NEG_INFINITY;
    let mut hi_min = f64::INFINITY;
    let mut hi_max = f64::NEG_INFINITY;
    for e in outputs {
        lo_min = lo_min.min(e.lo());
        lo_max = lo_max.max(e.lo());
        hi_min = hi_min.min(e.hi());
        hi_max = hi_max.max(e.hi());
    }
    // The spread of any point selection lies in [spread_lo, spread_hi].
    let spread_hi = hi_max - lo_min; // outward by construction
    let spread_lo = (lo_max - hi_min).max(0.0);
    if spread_hi <= eps {
        Certainty::Certain(true)
    } else if spread_lo > eps {
        Certainty::Certain(false)
    } else {
        Certainty::Unknown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metropolis::Metropolis;
    use crate::push_sum::{FrequencyState, PushSum, PushSumFrequency, PushSumState};
    use kya_arith::{BigRational, LazyRational};
    use kya_graph::{generators, DynamicGraph, StaticGraph};
    use kya_runtime::{Execution, Isotropic, RunConfig};

    fn nets() -> Vec<StaticGraph> {
        vec![
            StaticGraph::new(generators::bidirectional_ring(6)),
            StaticGraph::new(generators::complete(5)),
            StaticGraph::new(generators::random_strongly_connected(7, 6, 3)),
        ]
    }

    #[test]
    fn certified_push_sum_encloses_f64_and_exact_runs() {
        let values = [3.25, -1.5, 4.125, 0.75, 9.0, 2.5];
        for net in nets() {
            let n = net.n();
            let vals = &values[..n.min(values.len())];
            let vals: Vec<f64> = (0..n).map(|i| vals[i % vals.len()] + i as f64).collect();
            let mut f64_exec = Execution::new(Isotropic(PushSum), PushSumState::averaging(&vals));
            let mut cert_exec = Execution::new(
                Isotropic(PushSum::<Enclosure>::new()),
                PushSumState::averaging(&vals),
            );
            let mut exact_exec = Execution::new(
                Isotropic(PushSum::<BigRational>::new()),
                PushSumState::averaging(&vals),
            );
            for _ in 0..15 {
                f64_exec.drive(&net, RunConfig::rounds(1));
                cert_exec.drive(&net, RunConfig::rounds(1));
                exact_exec.drive(&net, RunConfig::rounds(1));
                let enc = cert_exec.outputs();
                let f = f64_exec.outputs();
                let q = exact_exec.outputs();
                for v in 0..n {
                    assert!(
                        enc[v].contains(f[v]),
                        "f64 output {} escaped enclosure {:?}",
                        f[v],
                        enc[v]
                    );
                    assert!(
                        enc[v].contains_rational(&q[v]),
                        "exact output {:?} escaped enclosure {:?}",
                        q[v],
                        enc[v]
                    );
                }
            }
        }
    }

    #[test]
    fn lazy_push_sum_is_bit_identical_to_eager_exact() {
        for net in nets() {
            let n = net.n();
            let vals: Vec<f64> = (0..n).map(|i| i as f64 + 0.625).collect();
            let mut eager = Execution::new(
                Isotropic(PushSum::<BigRational>::new()),
                PushSumState::averaging(&vals),
            );
            let mut lazy = Execution::new(
                Isotropic(PushSum::<LazyRational>::new()),
                PushSumState::averaging(&vals),
            );
            eager.drive(&net, RunConfig::rounds(12));
            lazy.drive(&net, RunConfig::rounds(12));
            assert_eq!(eager.outputs(), lazy.outputs());
        }
    }

    #[test]
    fn certified_metropolis_encloses_f64_run() {
        for net in nets() {
            let n = net.n();
            let vals: Vec<f64> = (0..n).map(|i| (i * i) as f64 / 3.0).collect();
            let mut f64_exec = Execution::new(Isotropic(Metropolis), vals.clone());
            let enc_init: Vec<Enclosure> = vals.iter().map(|&v| Enclosure::point(v)).collect();
            let mut cert_exec = Execution::new(Isotropic(Metropolis::new()), enc_init);
            for _ in 0..20 {
                f64_exec.drive(&net, RunConfig::rounds(1));
                cert_exec.drive(&net, RunConfig::rounds(1));
                let enc = cert_exec.outputs();
                let f = f64_exec.outputs();
                for v in 0..n {
                    assert!(
                        enc[v].contains(f[v]),
                        "Metropolis f64 {} escaped {:?}",
                        f[v],
                        enc[v]
                    );
                }
            }
        }
    }

    #[test]
    fn certified_frequency_encloses_both_runs_and_lazy_matches_exact() {
        let values = [2u64, 7, 2, 9, 7, 2, 4];
        for net in nets() {
            let n = net.n();
            let vals = &values[..n];
            let mut f64_exec = Execution::new(
                Isotropic(PushSumFrequency::frequency()),
                FrequencyState::initial(vals),
            );
            let mut cert_exec = Execution::new(
                Isotropic(PushSumFrequency::<Enclosure>::new(None)),
                FrequencyState::initial(vals),
            );
            let mut eager = Execution::new(
                Isotropic(PushSumFrequency::<BigRational>::new(None)),
                FrequencyState::initial(vals),
            );
            let mut lazy = Execution::new(
                Isotropic(PushSumFrequency::<LazyRational>::new(None)),
                FrequencyState::initial(vals),
            );
            eager.drive(&net, RunConfig::rounds(10));
            lazy.drive(&net, RunConfig::rounds(10));
            assert_eq!(eager.outputs(), lazy.outputs());
            f64_exec.drive(&net, RunConfig::rounds(10));
            cert_exec.drive(&net, RunConfig::rounds(10));
            let exact_out = eager.outputs();
            for (agent, (enc_map, f_map)) in cert_exec
                .outputs()
                .iter()
                .zip(f64_exec.outputs().iter())
                .enumerate()
            {
                assert_eq!(
                    enc_map.keys().collect::<Vec<_>>(),
                    f_map.keys().collect::<Vec<_>>(),
                    "key sets diverged at agent {agent}"
                );
                for (v, enc) in enc_map {
                    assert!(enc.contains(f_map[v]), "f64 freq escaped enclosure");
                    if let Some(q) = exact_out[agent].get(v) {
                        assert!(enc.contains_rational(q), "exact freq escaped enclosure");
                    }
                }
            }
        }
    }

    #[test]
    fn spread_certification() {
        let tight = vec![Enclosure::point(1.0), Enclosure::point(1.0 + 1e-12)];
        assert_eq!(certify_spread_below(&tight, 1e-9), Certainty::Certain(true));
        assert_eq!(
            certify_spread_below(&tight, 1e-15),
            Certainty::Certain(false)
        );
        // Points exactly eps apart with the threshold in between the
        // bounds: decidable (points have zero width).
        assert_eq!(certify_spread_below(&[], 0.0), Certainty::Certain(true));
        // An ENTIRE member makes the spread undecidable.
        let wide = vec![Enclosure::point(1.0), Enclosure::ENTIRE];
        assert_eq!(certify_spread_below(&wide, 1e-9), Certainty::Unknown);
        let mut stats = EscalationStats::default();
        stats.record(true);
        stats.record(false);
        stats.record(true);
        assert_eq!(stats.certifications, 3);
        assert_eq!(stats.escalations, 1);
        assert!((stats.rate() - 1.0 / 3.0).abs() < 1e-15);
    }
}
