//! The number systems the averaging algorithms run over.
//!
//! Push-Sum, Algorithm 1's frequency Push-Sum and Metropolis averaging
//! are stated once, over ℝ. [`Scalar`] is the handful of operations they
//! perform, so each algorithm is written once and instantiated per
//! backend:
//!
//! - `f64`: fast, no guarantees;
//! - [`Enclosure`](crate::Enclosure): directed-rounding intervals that contain both the
//!   exact value and every round-to-nearest f64 trajectory;
//! - [`BigRational`]: exact, normalized after every operation;
//! - [`LazyRational`](crate::LazyRational): exact, normalized only at the output projection.
//!
//! Each instance performs the same operations in the same order as a
//! hand-written loop over that type would, so the `f64` instance is
//! bitwise the plain floating-point algorithm.

use crate::BigRational;
use std::fmt;

/// A number system the averaging algorithms can run over.
pub trait Scalar: Clone + fmt::Debug + Send + Sync {
    /// What outputs are reported in: the scalar itself, except that
    /// [`LazyRational`](crate::LazyRational) reduces to [`BigRational`]
    /// at the output.
    type Out: Clone + fmt::Debug + PartialEq + Send + Sync;

    /// The additive identity.
    fn zero() -> Self;

    /// The multiplicative identity.
    fn one() -> Self;

    /// The exact lift of an f64.
    ///
    /// # Panics
    ///
    /// The exact and interval scalars panic if `v` is not finite.
    fn lift(v: f64) -> Self;

    /// `self + rhs`.
    fn add(&self, rhs: &Self) -> Self;

    /// `self − rhs`.
    fn sub(&self, rhs: &Self) -> Self;

    /// `self × rhs`.
    fn mul(&self, rhs: &Self) -> Self;

    /// `self / d` for a positive integer degree `d`: a Push-Sum share or
    /// a Metropolis weight.
    ///
    /// # Panics
    ///
    /// The exact and interval scalars panic if `d == 0`.
    fn div_degree(&self, d: usize) -> Self;

    /// Whether the value is certainly positive.
    fn is_positive(&self) -> bool;

    /// The output projection `self / den`.
    fn ratio(&self, den: &Self) -> Self::Out;

    /// Algorithm 1's per-value output `ℓ · y / z` (`ℓ = 1` outside leader
    /// mode). When `z` is not certainly positive each scalar keeps its
    /// own rule: `f64` reports `+∞`, [`Enclosure`](crate::Enclosure) the
    /// whole line, and the exact scalars omit the entry (`None`, this
    /// default).
    fn frequency(y: &Self, z: &Self, leaders: Option<usize>) -> Option<Self::Out> {
        let y = match leaders {
            Some(ell) => y.mul(&Self::lift(ell as f64)),
            None => y.clone(),
        };
        z.is_positive().then(|| y.ratio(z))
    }
}

impl Scalar for f64 {
    type Out = f64;

    fn zero() -> f64 {
        0.0
    }

    fn one() -> f64 {
        1.0
    }

    fn lift(v: f64) -> f64 {
        v
    }

    fn add(&self, rhs: &f64) -> f64 {
        self + rhs
    }

    fn sub(&self, rhs: &f64) -> f64 {
        self - rhs
    }

    fn mul(&self, rhs: &f64) -> f64 {
        self * rhs
    }

    fn div_degree(&self, d: usize) -> f64 {
        self / d as f64
    }

    fn is_positive(&self) -> bool {
        *self > 0.0
    }

    fn ratio(&self, den: &f64) -> f64 {
        self / den
    }

    fn frequency(y: &f64, z: &f64, leaders: Option<usize>) -> Option<f64> {
        let x = if *z > 0.0 { y / z } else { f64::INFINITY };
        Some(match leaders {
            Some(ell) => x * ell as f64,
            None => x,
        })
    }
}

impl Scalar for BigRational {
    type Out = BigRational;

    fn zero() -> BigRational {
        BigRational::zero()
    }

    fn one() -> BigRational {
        BigRational::one()
    }

    fn lift(v: f64) -> BigRational {
        BigRational::from_f64(v).expect("finite value")
    }

    fn add(&self, rhs: &BigRational) -> BigRational {
        self + rhs
    }

    fn sub(&self, rhs: &BigRational) -> BigRational {
        self - rhs
    }

    fn mul(&self, rhs: &BigRational) -> BigRational {
        self * rhs
    }

    fn div_degree(&self, d: usize) -> BigRational {
        self.div_integer(d as u64)
    }

    fn is_positive(&self) -> bool {
        BigRational::is_positive(self)
    }

    fn ratio(&self, den: &BigRational) -> BigRational {
        self / den
    }
}
