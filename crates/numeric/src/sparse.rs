//! Compressed-sparse-row matrices.
//!
//! The reachability graph of a GTPN grows combinatorially with the number of
//! processors, and its transition-probability matrix is extremely sparse
//! (each tangible state reaches only a handful of successors). This module
//! provides the CSR representation and the products needed by the iterative
//! steady-state solvers in [`crate::markov`].

use crate::NumericError;

/// A coordinate-format entry used while assembling a sparse matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triplet {
    /// Row index.
    pub row: usize,
    /// Column index.
    pub col: usize,
    /// Value; duplicate `(row, col)` entries are summed.
    pub value: f64,
}

/// A compressed-sparse-row matrix.
///
/// # Example
///
/// ```
/// use snoop_numeric::sparse::{CsrMatrix, Triplet};
///
/// # fn main() -> Result<(), snoop_numeric::NumericError> {
/// let m = CsrMatrix::from_triplets(
///     2,
///     2,
///     &[
///         Triplet { row: 0, col: 1, value: 1.0 },
///         Triplet { row: 1, col: 0, value: 0.5 },
///         Triplet { row: 1, col: 1, value: 0.5 },
///     ],
/// )?;
/// assert_eq!(m.vec_mul(&[1.0, 0.0])?, vec![0.0, 1.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row pointers, length `rows + 1`.
    row_ptr: Vec<usize>,
    /// Column indices, sorted within each row.
    col_idx: Vec<usize>,
    /// Non-zero values, parallel to `col_idx`.
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Assembles a CSR matrix from coordinate triplets. Duplicates are
    /// summed; explicit zeros are dropped.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidArgument`] if either dimension is zero
    /// and [`NumericError::DimensionMismatch`] if a triplet is out of bounds.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[Triplet],
    ) -> Result<Self, NumericError> {
        if rows == 0 || cols == 0 {
            return Err(NumericError::InvalidArgument(
                "sparse matrix dimensions must be positive".into(),
            ));
        }
        for t in triplets {
            if t.row >= rows {
                return Err(NumericError::DimensionMismatch { expected: rows, actual: t.row });
            }
            if t.col >= cols {
                return Err(NumericError::DimensionMismatch { expected: cols, actual: t.col });
            }
        }

        let mut sorted: Vec<&Triplet> = triplets.iter().collect();
        sorted.sort_by_key(|t| (t.row, t.col));

        // Merge duplicates into (row, col, value) runs, then lay out CSR.
        let mut merged: Vec<(usize, usize, f64)> = Vec::with_capacity(sorted.len());
        for t in sorted {
            match merged.last_mut() {
                Some((r, c, v)) if *r == t.row && *c == t.col => *v += t.value,
                _ => merged.push((t.row, t.col, t.value)),
            }
        }
        merged.retain(|&(_, _, v)| v != 0.0);

        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(merged.len());
        let mut values = Vec::with_capacity(merged.len());
        for (r, c, v) in merged {
            row_ptr[r + 1] += 1;
            col_idx.push(c);
            values.push(v);
        }
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }

        Ok(CsrMatrix { rows, cols, row_ptr, col_idx, values })
    }

    /// Assembles a CSR matrix directly from per-row adjacency lists —
    /// `rows[r]` holds the `(col, value)` entries of row `r` in any order.
    ///
    /// This is the fast path for reachability-graph transition matrices,
    /// whose edges are already grouped by source state: no global triplet
    /// sort, no intermediate allocation proportional to a re-sorted copy.
    /// Within each row, entries are sorted by column, duplicates summed,
    /// and explicit zeros dropped (same normal form as
    /// [`CsrMatrix::from_triplets`]).
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidArgument`] if either dimension is zero
    /// and [`NumericError::DimensionMismatch`] if a column is out of bounds.
    pub fn from_adjacency(
        cols: usize,
        rows: &[Vec<(usize, f64)>],
    ) -> Result<Self, NumericError> {
        if rows.is_empty() || cols == 0 {
            return Err(NumericError::InvalidArgument(
                "sparse matrix dimensions must be positive".into(),
            ));
        }
        let nnz_bound: usize = rows.iter().map(Vec::len).sum();
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        let mut col_idx = Vec::with_capacity(nnz_bound);
        let mut values = Vec::with_capacity(nnz_bound);
        row_ptr.push(0);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for row in rows {
            for &(c, _) in row {
                if c >= cols {
                    return Err(NumericError::DimensionMismatch { expected: cols, actual: c });
                }
            }
            scratch.clear();
            scratch.extend_from_slice(row);
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let (c, mut v) = scratch[i];
                i += 1;
                while i < scratch.len() && scratch[i].0 == c {
                    v += scratch[i].1;
                    i += 1;
                }
                if v != 0.0 {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Ok(CsrMatrix { rows: rows.len(), cols, row_ptr, col_idx, values })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates over the non-zero entries of row `r` as `(col, value)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(r < self.rows, "row {r} out of bounds");
        let span = self.row_ptr[r]..self.row_ptr[r + 1];
        self.col_idx[span.clone()].iter().copied().zip(self.values[span].iter().copied())
    }

    /// One fused sweep of the damped power iteration
    /// `out = α·(self·x) + (1−α)·x`, returning the max-norm residual
    /// `max_i |out[i] − x[i]|` computed in the same pass.
    ///
    /// `self` is expected to be the *transpose* of a row-stochastic
    /// matrix, so the product is the row-gather form of `x^T P` — an
    /// unrolled kernel with a fixed, deterministic reassociation — and the
    /// damped update plus convergence residual fold into the same
    /// cache-resident traversal instead of two extra passes over `x` and
    /// `out`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] unless the matrix is
    /// square with `x.len() == out.len() == rows`.
    pub fn power_sweep_into(
        &self,
        x: &[f64],
        alpha: f64,
        out: &mut [f64],
    ) -> Result<f64, NumericError> {
        if self.cols != self.rows {
            return Err(NumericError::DimensionMismatch {
                expected: self.rows,
                actual: self.cols,
            });
        }
        if x.len() != self.cols {
            return Err(NumericError::DimensionMismatch { expected: self.cols, actual: x.len() });
        }
        if out.len() != self.rows {
            return Err(NumericError::DimensionMismatch { expected: self.rows, actual: out.len() });
        }
        let beta = 1.0 - alpha;
        let mut residual = 0.0_f64;
        for r in 0..self.rows {
            let span = self.row_ptr[r]..self.row_ptr[r + 1];
            let acc = dot_gather(&self.col_idx[span.clone()], &self.values[span], x);
            let updated = alpha * acc + beta * x[r];
            residual = residual.max((updated - x[r]).abs());
            out[r] = updated;
        }
        Ok(residual)
    }

    /// The transposed matrix in the same CSR normal form (each row's
    /// columns sorted ascending).
    ///
    /// Power iteration computes `π^T P` every sweep; on `P` that is a
    /// column-scatter with data-dependent writes. Transposing once up
    /// front turns every subsequent sweep into the row-gather form the
    /// unrolled kernel wants. Cost: one counting sort over the non-zeros.
    pub fn transpose(&self) -> CsrMatrix {
        let nnz = self.values.len();
        let mut row_ptr = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            row_ptr[c + 1] += 1;
        }
        for i in 0..self.cols {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut cursor = row_ptr[..self.cols].to_vec();
        let mut col_idx = vec![0usize; nnz];
        let mut values = vec![0.0; nnz];
        // Scanning source rows in ascending order keeps each transposed
        // row's columns sorted — the CSR normal form — for free.
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                let dst = cursor[c];
                cursor[c] += 1;
                col_idx[dst] = r;
                values[dst] = v;
            }
        }
        CsrMatrix { rows: self.cols, cols: self.rows, row_ptr, col_idx, values }
    }

    /// Vector-matrix product `x^T * self`, the workhorse of power iteration
    /// on row-stochastic matrices.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `x.len() != rows`.
    pub fn vec_mul(&self, x: &[f64]) -> Result<Vec<f64>, NumericError> {
        if x.len() != self.rows {
            return Err(NumericError::DimensionMismatch { expected: self.rows, actual: x.len() });
        }
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            let xr = x[r];
            if xr == 0.0 {
                continue;
            }
            for (c, v) in self.row_entries(r) {
                out[c] += xr * v;
            }
        }
        Ok(out)
    }

    /// Sum of each row's entries; for a stochastic matrix these are all 1.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows).map(|r| self.row_entries(r).map(|(_, v)| v).sum()).collect()
    }

    /// Converts to a dense [`crate::matrix::Matrix`]. Intended for small
    /// matrices (direct solves, tests).
    pub fn to_dense(&self) -> crate::matrix::Matrix {
        let mut m = crate::matrix::Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                m[(r, c)] += v;
            }
        }
        m
    }
}

/// Sparse gather dot product `Σ values[k] · x[cols[k]]`, unrolled by four
/// with independent accumulators so the loads pipeline and the compiler
/// can vectorize. The combine order `(a0 + a2) + (a1 + a3)` and the
/// in-order tail are fixed, making the reassociation deterministic.
#[inline]
fn dot_gather(cols: &[usize], values: &[f64], x: &[f64]) -> f64 {
    let len = values.len();
    let mut k = 0;
    let (mut a0, mut a1, mut a2, mut a3) = (0.0_f64, 0.0_f64, 0.0_f64, 0.0_f64);
    while k + 4 <= len {
        a0 += values[k] * x[cols[k]];
        a1 += values[k + 1] * x[cols[k + 1]];
        a2 += values[k + 2] * x[cols[k + 2]];
        a3 += values[k + 3] * x[cols[k + 3]];
        k += 4;
    }
    let mut acc = (a0 + a2) + (a1 + a3);
    while k < len {
        acc += values[k] * x[cols[k]];
        k += 1;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> CsrMatrix {
        CsrMatrix::from_triplets(
            3,
            3,
            &[
                Triplet { row: 0, col: 0, value: 1.0 },
                Triplet { row: 0, col: 2, value: 2.0 },
                Triplet { row: 2, col: 1, value: 3.0 },
            ],
        )
        .unwrap()
    }

    #[test]
    fn nnz_and_dims() {
        let m = simple();
        assert_eq!(m.nnz(), 3);
        assert_eq!((m.rows(), m.cols()), (3, 3));
    }

    #[test]
    fn vec_mul_matches_dense() {
        let m = simple();
        let x = [1.0, -1.0, 0.5];
        assert_eq!(m.vec_mul(&x).unwrap(), m.to_dense().vec_mul(&x).unwrap());
    }

    #[test]
    fn duplicates_are_summed() {
        let m = CsrMatrix::from_triplets(
            1,
            1,
            &[Triplet { row: 0, col: 0, value: 1.5 }, Triplet { row: 0, col: 0, value: 0.5 }],
        )
        .unwrap();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.vec_mul(&[1.0]).unwrap(), vec![2.0]);
    }

    #[test]
    fn explicit_zeros_dropped() {
        let m = CsrMatrix::from_triplets(2, 2, &[Triplet { row: 0, col: 1, value: 0.0 }]).unwrap();
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn out_of_bounds_triplet_rejected() {
        let err =
            CsrMatrix::from_triplets(2, 2, &[Triplet { row: 2, col: 0, value: 1.0 }]).unwrap_err();
        assert!(matches!(err, NumericError::DimensionMismatch { .. }));
    }

    #[test]
    fn row_sums_of_stochastic_matrix() {
        let m = CsrMatrix::from_triplets(
            2,
            2,
            &[
                Triplet { row: 0, col: 0, value: 0.25 },
                Triplet { row: 0, col: 1, value: 0.75 },
                Triplet { row: 1, col: 0, value: 1.0 },
            ],
        )
        .unwrap();
        let sums = m.row_sums();
        assert!((sums[0] - 1.0).abs() < 1e-15);
        assert!((sums[1] - 1.0).abs() < 1e-15);
    }

    #[test]
    fn empty_dimensions_rejected() {
        assert!(CsrMatrix::from_triplets(0, 1, &[]).is_err());
    }

    #[test]
    fn from_adjacency_matches_triplets() {
        let adjacency = vec![
            vec![(2, 2.0), (0, 1.0)],          // unsorted within the row
            vec![],                            // empty row
            vec![(1, 1.5), (1, 1.5), (0, 0.0)] // duplicate + explicit zero
        ];
        let direct = CsrMatrix::from_adjacency(3, &adjacency).unwrap();
        let triplets = CsrMatrix::from_triplets(
            3,
            3,
            &[
                Triplet { row: 0, col: 2, value: 2.0 },
                Triplet { row: 0, col: 0, value: 1.0 },
                Triplet { row: 2, col: 1, value: 3.0 },
            ],
        )
        .unwrap();
        assert_eq!(direct, triplets);
        assert_eq!(direct.nnz(), 3);
    }

    #[test]
    fn from_adjacency_rejects_out_of_bounds_column() {
        let err = CsrMatrix::from_adjacency(2, &[vec![(2, 1.0)]]).unwrap_err();
        assert!(matches!(err, NumericError::DimensionMismatch { expected: 2, actual: 2 }));
    }

    #[test]
    fn from_adjacency_rejects_empty() {
        assert!(CsrMatrix::from_adjacency(0, &[vec![]]).is_err());
        assert!(CsrMatrix::from_adjacency(1, &[]).is_err());
    }

    /// A dense-ish matrix whose rows exercise the unrolled kernel's main
    /// loop (≥ 4 nnz) and every tail length 0..=3.
    fn ragged(rows: usize, cols: usize) -> CsrMatrix {
        let mut triplets = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if (r * 31 + c * 17) % (r % 4 + 2) != 0 {
                    continue;
                }
                let value = ((r * cols + c) as f64).sin();
                triplets.push(Triplet { row: r, col: c, value });
            }
        }
        CsrMatrix::from_triplets(rows, cols, &triplets).unwrap()
    }

    #[test]
    fn power_sweep_matches_vec_mul_on_ragged_rows() {
        // α = 1 makes the sweep on Mᵀ a plain product xᵀM, so the unrolled
        // gather kernel is checked against the scatter reference on every
        // tail length.
        let m = ragged(13, 13);
        let x: Vec<f64> = (0..13).map(|i| (i as f64).cos()).collect();
        let mut out = vec![0.0; 13];
        m.transpose().power_sweep_into(&x, 1.0, &mut out).unwrap();
        for (a, b) in out.iter().zip(&m.vec_mul(&x).unwrap()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let m = ragged(9, 14);
        let t = m.transpose();
        assert_eq!((t.rows(), t.cols()), (14, 9));
        assert_eq!(t.nnz(), m.nnz());
        let dense = m.to_dense();
        let dense_t = t.to_dense();
        for r in 0..9 {
            for c in 0..14 {
                assert_eq!(dense[(r, c)], dense_t[(c, r)], "({r},{c})");
            }
        }
        // Normal form: transposing twice round-trips exactly.
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn power_sweep_fuses_update_and_residual() {
        // Row-stochastic P; sweep on P^T must reproduce the reference
        // α·(x^T P) + (1−α)·x update and its max-norm residual.
        let p = CsrMatrix::from_triplets(
            3,
            3,
            &[
                Triplet { row: 0, col: 1, value: 0.75 },
                Triplet { row: 0, col: 2, value: 0.25 },
                Triplet { row: 1, col: 0, value: 1.0 },
                Triplet { row: 2, col: 0, value: 0.5 },
                Triplet { row: 2, col: 2, value: 0.5 },
            ],
        )
        .unwrap();
        let pt = p.transpose();
        let x = [0.5, 0.3, 0.2];
        let alpha = 0.9;
        let mut out = vec![0.0; 3];
        let residual = pt.power_sweep_into(&x, alpha, &mut out).unwrap();
        let product = p.vec_mul(&x).unwrap();
        let mut expected_residual = 0.0_f64;
        for i in 0..3 {
            let expected = alpha * product[i] + (1.0 - alpha) * x[i];
            assert!((out[i] - expected).abs() < 1e-15, "component {i}");
            expected_residual = expected_residual.max((expected - x[i]).abs());
        }
        assert!((residual - expected_residual).abs() < 1e-15);
    }

    #[test]
    fn power_sweep_rejects_non_square() {
        let m = CsrMatrix::from_triplets(2, 3, &[Triplet { row: 0, col: 2, value: 1.0 }]).unwrap();
        let mut out = vec![0.0; 2];
        assert!(m.power_sweep_into(&[1.0, 0.0, 0.0], 0.9, &mut out).is_err());
    }

    #[test]
    fn power_sweep_rejects_bad_buffer_lengths() {
        let m = simple();
        let mut short = vec![0.0; 2];
        assert!(m.power_sweep_into(&[1.0, 2.0, 3.0], 0.9, &mut short).is_err());
        let mut out = vec![0.0; 3];
        assert!(m.power_sweep_into(&[1.0, 2.0], 0.9, &mut out).is_err());
    }

    #[test]
    fn unsorted_triplets_are_sorted() {
        let m = CsrMatrix::from_triplets(
            2,
            2,
            &[
                Triplet { row: 1, col: 1, value: 4.0 },
                Triplet { row: 0, col: 0, value: 1.0 },
                Triplet { row: 1, col: 0, value: 3.0 },
                Triplet { row: 0, col: 1, value: 2.0 },
            ],
        )
        .unwrap();
        let d = m.to_dense();
        assert_eq!(d[(0, 0)], 1.0);
        assert_eq!(d[(0, 1)], 2.0);
        assert_eq!(d[(1, 0)], 3.0);
        assert_eq!(d[(1, 1)], 4.0);
    }
}
