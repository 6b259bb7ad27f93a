//! Fraction-free integer linear algebra (Bareiss elimination).
//!
//! §4.2 of the paper has each agent run "Gaussian elimination over the
//! Euclidean ring ℤ" on the fibre-count system. [`IMatrix`] implements
//! that literally: Bareiss' fraction-free elimination keeps every
//! intermediate entry an *integer* (each division is exact), bounds
//! coefficient growth by Hadamard's inequality, and yields the
//! determinant and a kernel basis without ever leaving ℤ.
//!
//! [`IMatrix::positive_integer_kernel`] is the exact solver of eq. 1:
//! the coprime positive ray that the fibre census is read from. It
//! certifies its answer before returning it, so the elimination needs no
//! trust.

use crate::BigInt;
use std::fmt;

/// Error returned by kernel extraction when the kernel does not have the
/// shape the caller requires.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KernelError {
    /// The kernel is trivial (`{0}`); the system has no non-zero solution.
    Trivial,
    /// The kernel has dimension greater than one, so no canonical ray
    /// exists.
    NotRankOne {
        /// Actual kernel dimension.
        dimension: usize,
    },
    /// The one-dimensional kernel is not spanned by a vector with all
    /// entries of one strict sign, so it cannot encode fibre cardinalities.
    NotPositive,
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Trivial => write!(f, "kernel is trivial"),
            KernelError::NotRankOne { dimension } => {
                write!(f, "kernel has dimension {dimension}, expected 1")
            }
            KernelError::NotPositive => {
                write!(f, "kernel ray has mixed-sign entries")
            }
        }
    }
}

impl std::error::Error for KernelError {}

/// A dense integer matrix.
///
/// ```
/// use kya_arith::{BigInt, IMatrix};
/// let m = IMatrix::from_i64_rows(&[&[2, 0], &[0, 3]]);
/// assert_eq!(m.determinant(), BigInt::from(6));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct IMatrix {
    rows: usize,
    cols: usize,
    data: Vec<BigInt>,
}

impl IMatrix {
    /// An `rows x cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> IMatrix {
        IMatrix {
            rows,
            cols,
            data: vec![BigInt::zero(); rows * cols],
        }
    }

    /// Build from rows of machine integers.
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths.
    pub fn from_i64_rows(rows: &[&[i64]]) -> IMatrix {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        let mut m = IMatrix::zeros(r, c);
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                m[(i, j)] = BigInt::from(v);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn mul_vec(&self, v: &[BigInt]) -> Vec<BigInt> {
        assert_eq!(v.len(), self.cols, "dimension mismatch");
        (0..self.rows)
            .map(|i| (0..self.cols).map(|j| &self[(i, j)] * &v[j]).sum())
            .collect()
    }

    /// Fraction-free row echelon form via Bareiss' algorithm; returns
    /// `(echelon, pivot columns, determinant-ish pivot)`.
    ///
    /// Every intermediate division is exact (a property of the Bareiss
    /// recurrence), so all entries stay integers. For a square
    /// non-singular matrix the last pivot equals the determinant up to
    /// the sign of the row swaps performed.
    fn bareiss(&self) -> (IMatrix, Vec<usize>, BigInt, bool) {
        let mut m = self.clone();
        let mut pivots = Vec::new();
        let mut prev = BigInt::one();
        let mut row = 0usize;
        let mut swapped_odd = false;
        for col in 0..m.cols {
            if row == m.rows {
                break;
            }
            let Some(p) = (row..m.rows).find(|&r| !m[(r, col)].is_zero()) else {
                continue;
            };
            if p != row {
                for j in 0..m.cols {
                    m.data.swap(row * m.cols + j, p * m.cols + j);
                }
                swapped_odd = !swapped_odd;
            }
            let pivot = m[(row, col)].clone();
            for r in (row + 1)..m.rows {
                for j in (col + 1)..m.cols {
                    // Bareiss: m[r][j] = (pivot*m[r][j] - m[r][col]*m[row][j]) / prev
                    let num = &(&pivot * &m[(r, j)]) - &(&m[(r, col)] * &m[(row, j)]);
                    let (q, rem) = num.div_rem(&prev);
                    debug_assert!(rem.is_zero(), "Bareiss division must be exact");
                    m[(r, j)] = q;
                }
                m[(r, col)] = BigInt::zero();
            }
            prev = pivot;
            pivots.push(col);
            row += 1;
        }
        (m, pivots, prev, swapped_odd)
    }

    /// Rank over ℚ (= rank over ℤ as a ℚ-matrix).
    pub fn rank(&self) -> usize {
        self.bareiss().1.len()
    }

    /// Determinant of a square matrix (fraction-free; exact).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn determinant(&self) -> BigInt {
        assert_eq!(self.rows, self.cols, "determinant of non-square matrix");
        if self.rows == 0 {
            return BigInt::one();
        }
        let (_, pivots, last_pivot, swapped_odd) = self.bareiss();
        if pivots.len() < self.rows {
            return BigInt::zero();
        }
        if swapped_odd {
            -last_pivot
        } else {
            last_pivot
        }
    }

    /// An integer basis of the kernel: one vector per free column, each
    /// with coprime entries. Entirely within ℤ — back-substitution on
    /// the Bareiss echelon form clears denominators as it goes.
    pub fn integer_kernel_basis(&self) -> Vec<Vec<BigInt>> {
        let (e, pivots, _, _) = self.bareiss();
        let rank = pivots.len();
        let mut pivot_of_col: Vec<Option<usize>> = vec![None; self.cols];
        for (r, &c) in pivots.iter().enumerate() {
            pivot_of_col[c] = Some(r);
        }
        let mut basis = Vec::new();
        for free in 0..self.cols {
            if pivot_of_col[free].is_some() {
                continue;
            }
            // Solve E x = 0 with x[free] chosen to clear denominators:
            // back-substitute from the bottom pivot row up, scaling the
            // whole vector by each pivot to stay integral.
            let mut x = vec![BigInt::zero(); self.cols];
            x[free] = BigInt::one();
            for r in (0..rank).rev() {
                let pc = pivots[r];
                // residual = sum_{j > pc} E[r][j] * x[j]
                let residual: BigInt = ((pc + 1)..self.cols).map(|j| &e[(r, j)] * &x[j]).sum();
                if residual.is_zero() {
                    continue;
                }
                let pivot = e[(r, pc)].clone();
                let g = pivot.gcd(&residual);
                let scale = &pivot / &g;
                // Scale everything so the division is exact, then set
                // x[pc] = -residual_scaled / pivot.
                if !scale.is_one() {
                    for xi in &mut x {
                        *xi = &*xi * &scale;
                    }
                }
                let (q, rem) = (&residual * &scale).div_rem(&pivot);
                debug_assert!(rem.is_zero());
                x[pc] = -q;
            }
            // The entries are already coprime: each step scales by the
            // least factor that makes the new entry integral, so `x` is
            // the smallest integral multiple of its rational kernel
            // vector.
            basis.push(x);
        }
        basis
    }

    /// For a matrix whose kernel is one-dimensional and spanned by a
    /// strictly-signed vector, return the unique positive integer vector
    /// with coprime entries spanning the kernel.
    ///
    /// This is exactly the object the paper's agents compute in §4.2
    /// ("a positive integer vector z whose all entries are coprime and such
    /// that ker M = ℝ z"): the entries are the fibre cardinalities up to a
    /// common factor (eq. 2).
    ///
    /// # Errors
    ///
    /// - [`KernelError::Trivial`] if the matrix has full column rank,
    /// - [`KernelError::NotRankOne`] if the kernel dimension exceeds one,
    /// - [`KernelError::NotPositive`] if the spanning ray has mixed signs
    ///   or a zero entry.
    ///
    /// # Panics
    ///
    /// Panics if the ray fails its certificate: `M z = 0` exactly, every
    /// entry positive, entry gcd 1. Bareiss checks its exact divisions
    /// only in debug builds, so the certificate is what vouches for the
    /// ray in release builds; a failure is a solver defect, not bad input.
    pub fn positive_integer_kernel(&self) -> Result<Vec<BigInt>, KernelError> {
        let mut basis = self.integer_kernel_basis();
        let mut z = match basis.len() {
            0 => return Err(KernelError::Trivial),
            1 => basis.pop().expect("one basis vector"),
            dimension => return Err(KernelError::NotRankOne { dimension }),
        };
        if z.iter().all(BigInt::is_negative) {
            z = z.iter().map(|x| -x).collect();
        }
        if !z.iter().all(BigInt::is_positive) {
            return Err(KernelError::NotPositive);
        }
        // The rest of the certificate; positivity was checked just above.
        let certified = z.iter().fold(BigInt::zero(), |g, x| g.gcd(x)).is_one()
            && self.mul_vec(&z).iter().all(BigInt::is_zero);
        assert!(
            certified,
            "kernel ray failed its certificate (M z = 0, z > 0, gcd 1)"
        );
        Ok(z)
    }
}

impl std::ops::Index<(usize, usize)> for IMatrix {
    type Output = BigInt;
    fn index(&self, (i, j): (usize, usize)) -> &BigInt {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for IMatrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut BigInt {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for IMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "IMatrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gcd, lcm, BigRational};
    use proptest::prelude::*;

    fn ints(v: &[i64]) -> Vec<BigInt> {
        v.iter().map(|&x| BigInt::from(x)).collect()
    }

    fn identity(n: usize) -> IMatrix {
        let mut m = IMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = BigInt::one();
        }
        m
    }

    /// Reference solver: Gauss–Jordan over ℚ, returning the rank and one
    /// kernel vector per free column.
    fn rational_kernel(m: &IMatrix) -> (usize, Vec<Vec<BigRational>>) {
        let (rows, cols) = (m.rows(), m.cols());
        let mut a: Vec<Vec<BigRational>> = (0..rows)
            .map(|i| {
                (0..cols)
                    .map(|j| BigRational::from_integer(m[(i, j)].clone()))
                    .collect()
            })
            .collect();
        let mut pivots = Vec::new();
        for col in 0..cols {
            let row = pivots.len();
            let Some(p) = (row..rows).find(|&r| !a[r][col].is_zero()) else {
                continue;
            };
            a.swap(row, p);
            let inv = a[row][col].recip();
            a[row] = a[row].iter().map(|x| x * &inv).collect();
            let pivot_row = a[row].clone();
            for r in (0..rows).filter(|&r| r != row) {
                let factor = a[r][col].clone();
                for (x, p) in a[r].iter_mut().zip(&pivot_row) {
                    *x = &*x - &(&factor * p);
                }
            }
            pivots.push(col);
        }
        let basis = (0..cols)
            .filter(|c| !pivots.contains(c))
            .map(|free| {
                let mut v = vec![BigRational::zero(); cols];
                v[free] = BigRational::one();
                for (row, &pc) in pivots.iter().enumerate() {
                    v[pc] = -&a[row][free];
                }
                v
            })
            .collect();
        (pivots.len(), basis)
    }

    /// Reference ray: the rational kernel, scaled to coprime positive
    /// integers when it is one-dimensional and strictly signed.
    fn rational_positive_kernel(m: &IMatrix) -> Result<Vec<BigInt>, KernelError> {
        let (_, basis) = rational_kernel(m);
        let v = match basis.len() {
            0 => return Err(KernelError::Trivial),
            1 => &basis[0],
            dimension => return Err(KernelError::NotRankOne { dimension }),
        };
        let sign = if v.iter().all(BigRational::is_positive) {
            BigInt::one()
        } else if v.iter().all(BigRational::is_negative) {
            -BigInt::one()
        } else {
            return Err(KernelError::NotPositive);
        };
        let den = v.iter().fold(BigInt::one(), |acc, x| lcm(&acc, x.denom()));
        let scaled: Vec<BigInt> = v
            .iter()
            .map(|x| x.numer() * &(&(&den / x.denom()) * &sign))
            .collect();
        let g = scaled.iter().fold(BigInt::zero(), |acc, x| gcd(&acc, x));
        Ok(scaled.iter().map(|x| x / &g).collect())
    }

    #[test]
    fn determinants() {
        assert_eq!(IMatrix::zeros(0, 0).determinant(), BigInt::one());
        let id = IMatrix::from_i64_rows(&[&[1, 0], &[0, 1]]);
        assert_eq!(id.determinant(), BigInt::from(1));
        let m = IMatrix::from_i64_rows(&[&[1, 2], &[3, 4]]);
        assert_eq!(m.determinant(), BigInt::from(-2));
        let singular = IMatrix::from_i64_rows(&[&[1, 2], &[2, 4]]);
        assert_eq!(singular.determinant(), BigInt::zero());
        // Row swap parity.
        let swapped = IMatrix::from_i64_rows(&[&[0, 1], &[1, 0]]);
        assert_eq!(swapped.determinant(), BigInt::from(-1));
    }

    #[test]
    fn identity_and_zero() {
        let id = identity(3);
        assert_eq!(id.rank(), 3);
        assert!(id.integer_kernel_basis().is_empty());
        let z = IMatrix::zeros(2, 3);
        assert_eq!(z.rank(), 0);
        assert_eq!(z.integer_kernel_basis().len(), 3);
        assert_eq!(IMatrix::from_i64_rows(&[&[2, 4], &[1, 3]]).rank(), 2);
    }

    #[test]
    fn rank_and_kernel_shapes() {
        let m = IMatrix::from_i64_rows(&[&[1, 2, 3], &[2, 4, 6]]);
        assert_eq!(m.rank(), 1);
        let basis = m.integer_kernel_basis();
        assert_eq!(basis.len(), 2);
        for v in &basis {
            assert!(m.mul_vec(v).iter().all(BigInt::is_zero));
        }
    }

    #[test]
    fn kernel_vectors_annihilate() {
        let m = IMatrix::from_i64_rows(&[&[1, 2, 3], &[4, 5, 6], &[7, 8, 9]]);
        assert_eq!(m.rank(), 2);
        for v in m.integer_kernel_basis() {
            assert!(m.mul_vec(&v).iter().all(BigInt::is_zero));
        }
    }

    #[test]
    fn kernel_entries_are_coprime() {
        let m = IMatrix::from_i64_rows(&[&[-8, 1, 2], &[2, -4, 2], &[6, 3, -4]]);
        let basis = m.integer_kernel_basis();
        assert_eq!(basis.len(), 1);
        let v = &basis[0];
        assert!(m.mul_vec(v).iter().all(BigInt::is_zero));
        let g = v.iter().fold(BigInt::zero(), |acc, x| gcd(&acc, x));
        assert!(g.is_one());
        assert_eq!(m.positive_integer_kernel(), Ok(ints(&[1, 2, 3])));
    }

    #[test]
    fn kernel_of_rank_one_system() {
        // Base of a bidirectional star K_{1,3} collapsed: center fibre 1,
        // leaf fibre 3. M = [[-3, 1], [3, -1]] (diag d_ii - b_i).
        let m = IMatrix::from_i64_rows(&[&[-3, 1], &[3, -1]]);
        assert_eq!(m.positive_integer_kernel(), Ok(ints(&[1, 3])));
    }

    #[test]
    fn kernel_errors() {
        assert_eq!(
            identity(2).positive_integer_kernel(),
            Err(KernelError::Trivial)
        );
        assert_eq!(
            IMatrix::zeros(2, 2).positive_integer_kernel(),
            Err(KernelError::NotRankOne { dimension: 2 })
        );
        // Kernel spanned by (1, -1): mixed signs.
        let m = IMatrix::from_i64_rows(&[&[1, 1]]);
        assert_eq!(m.positive_integer_kernel(), Err(KernelError::NotPositive));
        // Kernel spanned by (0, 1): a zero entry.
        let m = IMatrix::from_i64_rows(&[&[1, 0]]);
        assert_eq!(m.positive_integer_kernel(), Err(KernelError::NotPositive));
    }

    #[test]
    fn negative_ray_is_normalized() {
        // A negative pivot makes Bareiss back-substitution return the
        // negative ray; the positive kernel flips it.
        let m = IMatrix::from_i64_rows(&[&[-2, 1]]);
        assert_eq!(m.integer_kernel_basis(), vec![ints(&[-1, -2])]);
        assert_eq!(m.positive_integer_kernel(), Ok(ints(&[1, 2])));
    }

    #[test]
    fn non_dyadic_ray_is_exact() {
        // [[1/3, -1/7], [-1/3, 1/7]] scaled by 21. The ray (3, 7) has the
        // non-dyadic ratio 3/7, which floats can only approximate.
        let m = IMatrix::from_i64_rows(&[&[7, -3], &[-7, 3]]);
        assert_eq!(m.positive_integer_kernel(), Ok(ints(&[3, 7])));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Bareiss and rational elimination agree on rank, kernel
        /// dimension and the positive ray (or its error), and Bareiss
        /// kernels annihilate the matrix.
        #[test]
        fn matches_rational_elimination(
            rows in 1usize..5,
            cols in 1usize..5,
            seed in proptest::collection::vec(-9i64..9, 25),
        ) {
            let mut m = IMatrix::zeros(rows, cols);
            for i in 0..rows {
                for j in 0..cols {
                    m[(i, j)] = BigInt::from(seed[i * 5 + j]);
                }
            }
            let (rank, rational_basis) = rational_kernel(&m);
            prop_assert_eq!(m.rank(), rank);
            let basis = m.integer_kernel_basis();
            prop_assert_eq!(basis.len(), rational_basis.len());
            for v in &basis {
                prop_assert!(m.mul_vec(v).iter().all(BigInt::is_zero));
            }
            prop_assert_eq!(m.positive_integer_kernel(), rational_positive_kernel(&m));
        }

        /// A matrix built to annihilate a positive vector `z` yields the
        /// ray `z / gcd(z)` whenever its kernel is one-dimensional, and the
        /// rational reference agrees in every case.
        #[test]
        fn recovers_a_planted_positive_ray(
            rows in 1usize..6,
            z in proptest::collection::vec(1i64..12, 2..6),
            seed in proptest::collection::vec(-9i64..9, 30),
        ) {
            let cols = z.len();
            let last = cols - 1;
            let mut m = IMatrix::zeros(rows, cols);
            for i in 0..rows {
                let mut acc = 0;
                for j in 0..last {
                    let a = seed[i * 6 + j];
                    m[(i, j)] = BigInt::from(a * z[last]);
                    acc += a * z[j];
                }
                m[(i, last)] = BigInt::from(-acc);
            }
            let got = m.positive_integer_kernel();
            prop_assert_eq!(&got, &rational_positive_kernel(&m));
            if m.rank() == last {
                let g = z.iter().fold(BigInt::zero(), |acc, &x| gcd(&acc, &BigInt::from(x)));
                let expected: Vec<BigInt> = z.iter().map(|&x| &BigInt::from(x) / &g).collect();
                prop_assert_eq!(got, Ok(expected));
            }
        }

        #[test]
        fn rank_of_outer_product_is_one(
            a in proptest::collection::vec(-20i64..20, 2..5),
            b in proptest::collection::vec(-20i64..20, 2..5),
        ) {
            prop_assume!(a.iter().any(|&x| x != 0) && b.iter().any(|&x| x != 0));
            let mut m = IMatrix::zeros(a.len(), b.len());
            for i in 0..a.len() {
                for j in 0..b.len() {
                    m[(i, j)] = BigInt::from(a[i] * b[j]);
                }
            }
            prop_assert_eq!(m.rank(), 1);
        }

        #[test]
        fn kernel_dimension_theorem(
            rows in 1usize..5,
            cols in 1usize..5,
            seed in proptest::collection::vec(-9i64..9, 25),
        ) {
            let mut m = IMatrix::zeros(rows, cols);
            for i in 0..rows {
                for j in 0..cols {
                    m[(i, j)] = BigInt::from(seed[i * 5 + j]);
                }
            }
            let basis = m.integer_kernel_basis();
            prop_assert_eq!(basis.len(), cols - m.rank());
            for v in &basis {
                prop_assert!(m.mul_vec(v).iter().all(BigInt::is_zero));
            }
        }

        /// Determinant matches cofactor expansion for 3x3.
        #[test]
        fn det3_matches_rule_of_sarrus(vals in proptest::collection::vec(-20i64..20, 9)) {
            let m = IMatrix::from_i64_rows(&[
                &vals[0..3],
                &vals[3..6],
                &vals[6..9],
            ]);
            let (a, b, c, d, e, f, g, h, i) = (
                vals[0], vals[1], vals[2], vals[3], vals[4], vals[5], vals[6], vals[7], vals[8],
            );
            let det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g);
            prop_assert_eq!(m.determinant(), BigInt::from(det));
        }
    }
}
