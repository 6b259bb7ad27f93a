//! Stochastic-matrix utilities for the Push-Sum / Metropolis analyses.
//!
//! §5.2–5.3 of the paper analyze Push-Sum through a sequence of
//! column-stochastic matrices `A(t)` and the induced row-stochastic
//! matrices `B(t)`, bounding convergence through Dobrushin's ergodic
//! coefficient of backward products. This module implements those tools on
//! [`FMatrix`] so that experiments can *measure*
//! the quantities appearing in Lemma 5.1 and Theorem 5.2.

use crate::spectral::FMatrix;

/// Whether every column of `a` sums to one (within `tol`) and all entries
/// are non-negative.
pub fn is_column_stochastic(a: &FMatrix, tol: f64) -> bool {
    if !a.is_nonnegative() {
        return false;
    }
    (0..a.dim()).all(|j| {
        let s: f64 = (0..a.dim()).map(|i| a[(i, j)]).sum();
        (s - 1.0).abs() <= tol
    })
}

/// Whether every row of `a` sums to one (within `tol`) and all entries are
/// non-negative.
pub fn is_row_stochastic(a: &FMatrix, tol: f64) -> bool {
    if !a.is_nonnegative() {
        return false;
    }
    (0..a.dim()).all(|i| {
        let s: f64 = (0..a.dim()).map(|j| a[(i, j)]).sum();
        (s - 1.0).abs() <= tol
    })
}

/// Whether every *positive* entry of `a` is at least `alpha`
/// (the paper's α-safety, §5.2).
///
/// Entries with `|x| <= zero_tol` count as structural zeros: Metropolis
/// weights produced by floating-point division can leave denormal-tiny
/// residue where an exact zero is meant, and the strict `== 0.0` compare
/// this helper used to do made such matrices spuriously fail the
/// α-safety check. As with the `is_*_stochastic` helpers, the caller
/// chooses the tolerance; `0.0` recovers the exact-compare behavior.
pub fn is_alpha_safe(a: &FMatrix, alpha: f64, zero_tol: f64) -> bool {
    (0..a.dim()).all(|i| {
        (0..a.dim()).all(|j| {
            let x = a[(i, j)];
            x.abs() <= zero_tol || x >= alpha
        })
    })
}

/// Certified α-safety over entry enclosures: `Certain(true)` when every
/// entry is provably a structural zero or provably `≥ α`,
/// `Certain(false)` when some entry provably violates both, and
/// `Unknown` when an enclosure straddles the α (or zero) boundary — the
/// sign escalation point of the certified backend, where the caller
/// re-decides the entry in exact arithmetic instead of trusting a
/// `zero_tol` guess.
pub fn alpha_safety_certified(entries: &[crate::Enclosure], alpha: f64) -> crate::Certainty {
    use crate::Certainty;
    let mut undecided = false;
    for e in entries {
        if e.is_point() && e.lo() == 0.0 {
            // Provably a structural zero.
        } else if e.ge(alpha) == Certainty::Certain(true) {
            // Provably a safe weight.
        } else if e.lo() > 0.0 && e.hi() < alpha {
            // Provably positive yet provably below α: a genuine
            // violation, certified without escalation.
            return Certainty::Certain(false);
        } else {
            // Straddles the zero or the α boundary: escalate.
            undecided = true;
        }
    }
    if undecided {
        Certainty::Unknown
    } else {
        Certainty::Certain(true)
    }
}

/// Dobrushin's ergodic coefficient of a row-stochastic matrix
/// (§5.3, eq. (1.5) of Dobrushin):
///
/// `delta(P) = 1 - min_{i != j} sum_k min(P[i][k], P[j][k])`.
///
/// `delta` lies in `[0, 1]`; values below one certify contraction of the
/// seminorm `spread(v) = max v - min v`, and `delta` is sub-multiplicative
/// over products.
///
/// Returns `0.0` for matrices of dimension `<= 1` (a single agent is
/// trivially in consensus).
pub fn dobrushin_coefficient(p: &FMatrix) -> f64 {
    let n = p.dim();
    if n <= 1 {
        return 0.0;
    }
    let mut min_overlap = f64::INFINITY;
    for i in 0..n {
        for j in (i + 1)..n {
            let overlap: f64 = (0..n).map(|k| p[(i, k)].min(p[(j, k)])).sum();
            min_overlap = min_overlap.min(overlap);
        }
    }
    (1.0 - min_overlap).clamp(0.0, 1.0)
}

/// The seminorm `spread(v) = max_i v_i - min_i v_i` whose contraction rate
/// is exactly the Dobrushin coefficient (Seneta's duality, §5.3).
///
/// Returns `0.0` for empty input.
pub fn spread(v: &[f64]) -> f64 {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &x in v {
        min = min.min(x);
        max = max.max(x);
    }
    if v.is_empty() {
        0.0
    } else {
        max - min
    }
}

/// Backward product `A(t') * A(t'-1) * ... * A(t)` of a slice of matrices
/// given in forward time order `[A(t), ..., A(t')]` (the paper's
/// `A(t' : t)`, §5.2).
///
/// # Panics
///
/// Panics if the slice is empty or dimensions are inconsistent.
pub fn backward_product(mats: &[FMatrix]) -> FMatrix {
    assert!(!mats.is_empty(), "empty matrix sequence");
    let mut acc = mats[0].clone();
    for m in &mats[1..] {
        acc = m.mul(&acc);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doubly(n: usize) -> FMatrix {
        let mut m = FMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = 1.0 / n as f64;
            }
        }
        m
    }

    #[test]
    fn alpha_safety_certification() {
        use crate::{Certainty, Enclosure, Scalar};
        // Exact zeros and provably-safe weights certify true.
        let safe = [
            Enclosure::zero(),
            Enclosure::one().div_degree(3),
            Enclosure::point(0.5),
        ];
        assert_eq!(
            alpha_safety_certified(&safe, 0.25),
            Certainty::Certain(true)
        );
        // A weight provably inside (0, α) certifies the violation.
        let unsafe_ = [Enclosure::point(0.5).div_degree(8)];
        assert_eq!(
            alpha_safety_certified(&unsafe_, 0.25),
            Certainty::Certain(false)
        );
        // An enclosure straddling α cannot be decided: escalate.
        let straddling = [Enclosure::point(0.1) + Enclosure::point(0.2)];
        assert_eq!(
            alpha_safety_certified(&straddling, 0.1 + 0.2),
            Certainty::Unknown
        );
        // An enclosure straddling zero (not a structural-zero point)
        // cannot be decided either.
        let near_zero =
            [Enclosure::point(0.1) + Enclosure::point(0.2) - Enclosure::point(0.1 + 0.2)];
        assert_eq!(alpha_safety_certified(&near_zero, 0.25), Certainty::Unknown);
    }

    #[test]
    fn stochastic_checks() {
        let m = doubly(3);
        assert!(is_column_stochastic(&m, 1e-12));
        assert!(is_row_stochastic(&m, 1e-12));
        assert!(is_alpha_safe(&m, 1.0 / 3.0, 0.0));
        assert!(!is_alpha_safe(&m, 0.5, 0.0));
        let neg = FMatrix::from_rows(&[&[-1.0, 2.0], &[0.0, 1.0]]);
        assert!(!is_row_stochastic(&neg, 1e-12));
    }

    #[test]
    fn alpha_safety_tolerates_denormal_residue() {
        // A Metropolis-style weight row whose "zero" entry carries the
        // denormal residue of a floating-point cancellation.
        let denormal = f64::MIN_POSITIVE / 4.0;
        let m = FMatrix::from_rows(&[&[0.5, 0.5, denormal], &[0.0, 0.5, 0.5], &[0.5, 0.0, 0.5]]);
        // The exact compare (zero_tol = 0) spuriously fails...
        assert!(!is_alpha_safe(&m, 0.5, 0.0));
        // ...while any positive tolerance classifies it as a zero.
        assert!(is_alpha_safe(&m, 0.5, 1e-300));
        assert!(is_alpha_safe(&m, 0.5, 1e-12));
        // A genuinely sub-alpha positive entry still fails.
        let bad = FMatrix::from_rows(&[&[0.9, 0.1], &[0.5, 0.5]]);
        assert!(!is_alpha_safe(&bad, 0.5, 1e-12));
    }

    #[test]
    fn dobrushin_of_rank_one_is_zero() {
        // All rows equal: fully mixing, coefficient zero.
        assert!(dobrushin_coefficient(&doubly(4)) < 1e-12);
    }

    #[test]
    fn dobrushin_of_identity_is_one() {
        assert_eq!(dobrushin_coefficient(&FMatrix::identity(3)), 1.0);
        assert_eq!(dobrushin_coefficient(&FMatrix::identity(1)), 0.0);
    }

    #[test]
    fn dobrushin_submultiplicative() {
        let a = FMatrix::from_rows(&[&[0.5, 0.5, 0.0], &[0.0, 0.5, 0.5], &[0.5, 0.0, 0.5]]);
        let b = FMatrix::from_rows(&[&[0.9, 0.1, 0.0], &[0.1, 0.8, 0.1], &[0.0, 0.1, 0.9]]);
        let da = dobrushin_coefficient(&a);
        let db = dobrushin_coefficient(&b);
        let dab = dobrushin_coefficient(&a.mul(&b));
        assert!(dab <= da * db + 1e-12, "{dab} > {da} * {db}");
    }

    #[test]
    fn dobrushin_bounds_spread_contraction() {
        let p = FMatrix::from_rows(&[&[0.5, 0.5, 0.0], &[0.25, 0.5, 0.25], &[0.0, 0.5, 0.5]]);
        let d = dobrushin_coefficient(&p);
        for v in [[1.0, 0.0, -1.0], [3.0, 1.0, 2.0], [0.0, 10.0, 5.0]] {
            let pv = p.mul_vec(&v);
            assert!(spread(&pv) <= d * spread(&v) + 1e-12);
        }
    }

    #[test]
    fn backward_product_order() {
        // A then B applied to v: v(2) = B * (A * v) = (B*A) v.
        let a = FMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let b = FMatrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0]]);
        let prod = backward_product(&[a.clone(), b.clone()]);
        let v = vec![2.0, 3.0];
        let direct = b.mul_vec(&a.mul_vec(&v));
        assert_eq!(prod.mul_vec(&v), direct);
    }

    #[test]
    fn spread_edge_cases() {
        assert_eq!(spread(&[]), 0.0);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[1.0, 4.0, -2.0]), 6.0);
    }
}
