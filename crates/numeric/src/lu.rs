//! LU decomposition with partial pivoting.
//!
//! Backs [`crate::markov::steady_state_dense`], the direct reference
//! solution the tests hold the sparse steady-state solver to.

use crate::matrix::Matrix;
use crate::NumericError;

/// An LU factorization `P·A = L·U` of a square matrix, with partial
/// pivoting.
///
/// # Example
///
/// ```
/// use snoop_numeric::matrix::Matrix;
/// use snoop_numeric::lu::Lu;
///
/// # fn main() -> Result<(), snoop_numeric::NumericError> {
/// let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]])?;
/// let lu = Lu::factor(&a)?;
/// let x = lu.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Combined L (strict lower, unit diagonal implied) and U (upper) factors.
    factors: Matrix,
    /// Row permutation: `perm[i]` is the original row in position `i`.
    perm: Vec<usize>,
}

impl Lu {
    /// Pivot threshold below which the matrix is declared singular.
    const SINGULARITY_EPS: f64 = 1e-13;

    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] for non-square input and
    /// [`NumericError::SingularMatrix`] if a pivot is (numerically) zero.
    pub fn factor(a: &Matrix) -> Result<Self, NumericError> {
        if !a.is_square() {
            return Err(NumericError::DimensionMismatch { expected: a.rows(), actual: a.cols() });
        }
        let n = a.rows();
        let mut m = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let scale = a.max_abs().max(1.0);

        for col in 0..n {
            // Partial pivoting: pick the largest magnitude entry in the column.
            let mut pivot_row = col;
            let mut pivot_val = m[(col, col)].abs();
            for r in col + 1..n {
                let v = m[(r, col)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val <= Self::SINGULARITY_EPS * scale {
                return Err(NumericError::SingularMatrix { pivot: col });
            }
            if pivot_row != col {
                for c in 0..n {
                    let tmp = m[(col, c)];
                    m[(col, c)] = m[(pivot_row, c)];
                    m[(pivot_row, c)] = tmp;
                }
                perm.swap(col, pivot_row);
            }

            let pivot = m[(col, col)];
            for r in col + 1..n {
                let factor = m[(r, col)] / pivot;
                m[(r, col)] = factor;
                for c in col + 1..n {
                    let sub = factor * m[(col, c)];
                    m[(r, c)] -= sub;
                }
            }
        }

        Ok(Lu { factors: m, perm })
    }

    /// Solves `A·x = b` using the stored factorization.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b` has the wrong
    /// length.
    // Index-based loops mirror the textbook substitution kernels.
    #[allow(clippy::needless_range_loop)]
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericError> {
        let n = self.factors.rows();
        if b.len() != n {
            return Err(NumericError::DimensionMismatch { expected: n, actual: b.len() });
        }

        // Apply permutation, then forward-substitute L (unit diagonal).
        let mut x: Vec<f64> = self.perm.iter().map(|&i| b[i]).collect();
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.factors[(i, j)] * x[j];
            }
            x[i] = acc;
        }
        // Back-substitute U.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in i + 1..n {
                acc -= self.factors[(i, j)] * x[j];
            }
            x[i] = acc / self.factors[(i, i)];
        }
        Ok(x)
    }

}

/// Convenience wrapper: solves `A·x = b` in one call.
///
/// # Errors
///
/// Propagates the errors of [`Lu::factor`] and [`Lu::solve`].
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, NumericError> {
    Lu::factor(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
        a.mul_vec(x)
            .unwrap()
            .iter()
            .zip(b)
            .map(|(ax, bi)| (ax - bi).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn solves_3x3() {
        let a = Matrix::from_rows(&[
            vec![2.0, 1.0, -1.0],
            vec![-3.0, -1.0, 2.0],
            vec![-2.0, 1.0, 2.0],
        ])
        .unwrap();
        let b = [8.0, -11.0, -3.0];
        let x = solve(&a, &b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] - -1.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let x = solve(&a, &[3.0, 4.0]).unwrap();
        assert_eq!(x, vec![4.0, 3.0]);
    }

    #[test]
    fn detects_singular() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert!(matches!(Lu::factor(&a), Err(NumericError::SingularMatrix { .. })));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(Lu::factor(&a), Err(NumericError::DimensionMismatch { .. })));
    }

    #[test]
    fn random_ish_system_small_residual() {
        // A fixed but non-trivial 5x5 system.
        let a = Matrix::from_rows(&[
            vec![4.0, 1.0, 0.3, 0.0, 1.0],
            vec![1.0, 5.0, 1.0, 0.2, 0.0],
            vec![0.3, 1.0, 6.0, 1.0, 0.1],
            vec![0.0, 0.2, 1.0, 7.0, 1.0],
            vec![1.0, 0.0, 0.1, 1.0, 8.0],
        ])
        .unwrap();
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        let x = solve(&a, &b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn solve_rejects_wrong_rhs_length() {
        let a = Matrix::identity(3);
        let lu = Lu::factor(&a).unwrap();
        assert!(lu.solve(&[1.0]).is_err());
    }
}
