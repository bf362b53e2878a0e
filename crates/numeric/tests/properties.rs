//! Property-based tests of the numeric substrate.

use proptest::prelude::*;
use snoop_numeric::histogram::Histogram;
use snoop_numeric::lu::Lu;
use snoop_numeric::matrix::Matrix;
use snoop_numeric::sparse::{CsrMatrix, Triplet};
use snoop_numeric::stats::RunningStats;

/// Strategy: a strictly diagonally dominant n×n matrix (always invertible,
/// well conditioned enough for tight residual checks).
fn dominant_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(prop::collection::vec(-1.0f64..1.0, n), n).prop_map(move |rows| {
        let mut m = Matrix::zeros(n, n);
        for (i, row) in rows.iter().enumerate() {
            let mut off_sum = 0.0;
            for (j, &v) in row.iter().enumerate() {
                if i != j {
                    m[(i, j)] = v;
                    off_sum += v.abs();
                }
            }
            m[(i, i)] = off_sum + 1.0;
        }
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// LU solves diagonally dominant systems to tight residuals.
    #[test]
    fn lu_solves_dominant_systems(
        m in dominant_matrix(6),
        b in prop::collection::vec(-10.0f64..10.0, 6),
    ) {
        let lu = Lu::factor(&m).expect("dominant matrices factor");
        let x = lu.solve(&b).expect("dimension matches");
        let ax = m.mul_vec(&x).expect("dimension matches");
        for (axi, bi) in ax.iter().zip(&b) {
            prop_assert!((axi - bi).abs() < 1e-9, "residual {}", (axi - bi).abs());
        }
    }

    /// Sparse matvec agrees with the dense equivalent for arbitrary
    /// triplet soups (duplicates included).
    #[test]
    fn csr_matches_dense(
        triplets in prop::collection::vec((0usize..5, 0usize..5, -3.0f64..3.0), 0..40),
        x in prop::collection::vec(-2.0f64..2.0, 5),
    ) {
        let triplets: Vec<Triplet> = triplets
            .into_iter()
            .map(|(row, col, value)| Triplet { row, col, value })
            .collect();
        let sparse = CsrMatrix::from_triplets(5, 5, &triplets).unwrap();
        let dense = sparse.to_dense();
        let a = sparse.vec_mul(&x).unwrap();
        let b = dense.vec_mul(&x).unwrap();
        for (ai, bi) in a.iter().zip(&b) {
            prop_assert!((ai - bi).abs() < 1e-12);
        }
    }

    /// Merging RunningStats in any split is equivalent to a single pass.
    #[test]
    fn stats_merge_is_split_invariant(
        xs in prop::collection::vec(-100.0f64..100.0, 1..60),
        split in 0usize..60,
    ) {
        let split = split.min(xs.len());
        let whole: RunningStats = xs.iter().copied().collect();
        let mut left: RunningStats = xs[..split].iter().copied().collect();
        let right: RunningStats = xs[split..].iter().copied().collect();
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-9);
        prop_assert!((left.sample_variance() - whole.sample_variance()).abs() < 1e-7);
        prop_assert_eq!(left.min(), whole.min());
        prop_assert_eq!(left.max(), whole.max());
    }

    /// Histogram quantiles are monotone in q and bracket the data range.
    #[test]
    fn histogram_quantiles_are_monotone(
        xs in prop::collection::vec(0.0f64..100.0, 1..100),
    ) {
        let mut h = Histogram::new(0.0, 100.0, 25).unwrap();
        h.extend(xs.iter().copied());
        let mut last = f64::NEG_INFINITY;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
            let v = h.quantile(q).unwrap();
            prop_assert!(v >= last - 1e-12, "quantile({q}) = {v} < {last}");
            prop_assert!((0.0..=100.0).contains(&v));
            last = v;
        }
        // The histogram mean equals the sample mean exactly (it tracks the
        // raw sum).
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        prop_assert!((h.mean() - mean).abs() < 1e-9);
    }

    /// Transposing twice is the identity; A^T x = x^T A.
    #[test]
    fn transpose_laws(
        a in dominant_matrix(4),
        x in prop::collection::vec(-2.0f64..2.0, 4),
    ) {
        prop_assert_eq!(a.transpose().transpose(), a.clone());
        let at_x = a.transpose().mul_vec(&x).unwrap();
        let xt_a = a.vec_mul(&x).unwrap();
        for (l, r) in at_x.iter().zip(&xt_a) {
            prop_assert!((l - r).abs() < 1e-12);
        }
    }
}
