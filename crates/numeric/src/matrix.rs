//! Dense row-major matrices.
//!
//! A deliberately small dense-matrix type for [`crate::lu`] and the
//! dense-LU reference steady state on small GTPN chains (a few thousand
//! states at most).

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::NumericError;

/// A dense, row-major `rows × cols` matrix of `f64`.
///
/// # Example
///
/// ```
/// use snoop_numeric::matrix::Matrix;
///
/// let mut m = Matrix::zeros(2, 2);
/// m[(0, 0)] = 1.0;
/// m[(1, 1)] = 2.0;
/// assert_eq!(m.mul_vec(&[3.0, 4.0]).unwrap(), vec![3.0, 8.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from nested rows.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if the rows have unequal
    /// lengths, and [`NumericError::InvalidArgument`] if `rows` is empty.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, NumericError> {
        let first = rows
            .first()
            .ok_or_else(|| NumericError::InvalidArgument("matrix needs at least one row".into()))?;
        let cols = first.len();
        if cols == 0 {
            return Err(NumericError::InvalidArgument("rows must be non-empty".into()));
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(NumericError::DimensionMismatch { expected: cols, actual: row.len() });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix { rows: rows.len(), cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// A view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds for {} rows", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix-vector product `self * x`.
    ///
    /// (Index loops are used deliberately in these small dense kernels.)
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>, NumericError> {
        if x.len() != self.cols {
            return Err(NumericError::DimensionMismatch { expected: self.cols, actual: x.len() });
        }
        Ok((0..self.rows)
            .map(|i| self.row(i).iter().zip(x).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Vector-matrix product `x^T * self` (row vector times matrix).
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `x.len() != rows`.
    pub fn vec_mul(&self, x: &[f64]) -> Result<Vec<f64>, NumericError> {
        if x.len() != self.rows {
            return Err(NumericError::DimensionMismatch { expected: self.rows, actual: x.len() });
        }
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            let xi = x[i];
            if xi == 0.0 {
                continue;
            }
            for (o, a) in out.iter_mut().zip(self.row(i)) {
                *o += xi * a;
            }
        }
        Ok(out)
    }

    /// Maximum absolute entry (the max norm).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |acc, v| acc.max(v.abs()))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "index ({r}, {c}) out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index ({r}, {c}) out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:10.4}", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_mul_vec_is_identity() {
        let m = Matrix::identity(3);
        let v = m.mul_vec(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert!(matches!(err, NumericError::DimensionMismatch { expected: 2, actual: 1 }));
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[vec![]]).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.transpose(), m);
        assert_eq!(t[(2, 1)], 6.0);
    }

    #[test]
    fn vec_mul_matches_transpose_mul_vec() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let x = [1.0, -1.0, 2.0];
        let a = m.vec_mul(&x).unwrap();
        let b = m.transpose().mul_vec(&x).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn mul_vec_dimension_check() {
        let m = Matrix::zeros(2, 3);
        assert!(m.mul_vec(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn max_abs_is_the_max_norm() {
        let m = Matrix::from_rows(&[vec![1.0, -7.0], vec![2.0, 3.0]]).unwrap();
        assert_eq!(m.max_abs(), 7.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m[(2, 0)];
    }

    #[test]
    fn display_is_nonempty() {
        let m = Matrix::identity(2);
        assert!(!format!("{m}").is_empty());
    }
}
