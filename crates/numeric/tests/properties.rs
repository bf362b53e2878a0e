//! Property-based tests of the numeric substrate.

use proptest::prelude::*;
use snoop_numeric::fault::{Fault, FaultyMap};
use snoop_numeric::fixed_point::{DivergenceReason, FixedPoint, Options};
use snoop_numeric::histogram::Histogram;
use snoop_numeric::lu::Lu;
use snoop_numeric::matrix::Matrix;
use snoop_numeric::sparse::{CsrMatrix, Triplet};
use snoop_numeric::stats::RunningStats;
use snoop_numeric::NumericError;

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

    /// Any affine map — contractive, expansive, or oscillating — over
    /// random finite inputs either converges to finite values or returns
    /// a structured failure. It never panics and never leaks NaN/∞
    /// through `Solution::values` or `ConvergenceFailure::last_finite`.
    #[test]
    fn fixed_point_converges_or_fails_structurally(
        a in prop::collection::vec(prop::collection::vec(-1.5f64..1.5, 3), 3),
        b in prop::collection::vec(-5.0f64..5.0, 3),
        initial in prop::collection::vec(-10.0f64..10.0, 3),
        damping in 0.05f64..1.0,
    ) {
        let options = Options { max_iterations: 300, damping, ..Options::default() };
        let result = FixedPoint::new(options).solve(initial, |x, out| {
            for (out_i, row) in out.iter_mut().zip(&a) {
                *out_i = row.iter().zip(x).map(|(c, xi)| c * xi).sum::<f64>();
            }
            for (out_i, bi) in out.iter_mut().zip(&b) {
                *out_i += bi;
            }
        });
        match result {
            Ok(sol) => {
                prop_assert!(sol.values.iter().all(|v| v.is_finite()), "{:?}", sol.values);
                prop_assert!(sol.residual.is_finite() && sol.residual >= 0.0);
            }
            Err(NumericError::NoConvergence { residual, .. }) => {
                prop_assert!(residual.is_finite());
            }
            Err(NumericError::Diverged(failure)) => {
                prop_assert!(
                    failure.last_finite.iter().all(|v| v.is_finite()),
                    "{:?}",
                    failure.last_finite
                );
                prop_assert!(failure.iterations <= 300);
                prop_assert!(failure.residual_trajectory.iter().all(|r| r.is_finite()));
            }
            Err(e) => prop_assert!(false, "unexpected error class: {e}"),
        }
    }

    /// Pure reflections `x ← c − x` oscillate with period 2 around `c/2`
    /// from any start away from the fixed point; the limit-cycle detector
    /// must flag every one of them long before the iteration budget.
    #[test]
    fn reflection_maps_are_flagged_as_period_2(
        c in -5.0f64..5.0,
        offset in 1.0f64..10.0,
    ) {
        let result = FixedPoint::new(Options::default())
            .solve(vec![c / 2.0 + offset], |x, out| out[0] = c - x[0]);
        match result {
            Err(NumericError::Diverged(failure)) => {
                prop_assert_eq!(
                    failure.reason,
                    DivergenceReason::LimitCycle { period: 2 }
                );
                prop_assert!(failure.iterations < 50, "{}", failure.iterations);
            }
            other => prop_assert!(false, "expected limit-cycle diagnosis, got {other:?}"),
        }
    }

    /// A contraction wrecked by injected NaN, spike, and stall faults is
    /// either solved (finite values) or abandoned with a structured,
    /// finite diagnosis — the faults never escape as non-finite output.
    #[test]
    fn faulty_contraction_never_emits_non_finite(
        b in prop::collection::vec(0.5f64..4.0, 3),
        component in 0usize..3,
        call in 1usize..20,
        period in 0usize..8,
        factor in -100.0f64..100.0,
    ) {
        let base = b.clone();
        let contraction = move |x: &[f64], out: &mut [f64]| {
            out[0] = 0.4 * x[1] + base[0];
            out[1] = 0.3 * x[2] + base[1];
            out[2] = 0.2 * x[0] + base[2];
        };
        let mut faulty = FaultyMap::new(contraction)
            .with_fault(Fault::Nan { component, call })
            .with_fault(Fault::Spike { component, period, factor })
            .with_fault(Fault::Stall { component: (component + 1) % 3, from: call });
        let options = Options { max_iterations: 200, ..Options::default() };
        let result =
            FixedPoint::new(options).solve(vec![0.0; 3], |x, out| faulty.apply(x, out));
        match result {
            Ok(sol) => {
                prop_assert!(sol.values.iter().all(|v| v.is_finite()), "{:?}", sol.values);
            }
            Err(NumericError::Diverged(failure)) => {
                prop_assert!(failure.last_finite.iter().all(|v| v.is_finite()));
            }
            Err(NumericError::NoConvergence { residual, .. }) => {
                prop_assert!(residual.is_finite());
            }
            Err(e) => prop_assert!(false, "unexpected error class: {e}"),
        }
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
