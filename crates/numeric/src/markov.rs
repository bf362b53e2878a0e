//! Steady-state solvers for Markov chains.
//!
//! The GTPN engine reduces a timed Petri net to a discrete-time Markov chain
//! over its tangible markings; the performance measures of the detailed
//! model are then time-weighted averages under that chain's stationary
//! distribution.
//!
//! [`steady_state_sparse`] is the one production solver: a damped,
//! Aitken-accelerated power iteration on the sparse transition matrix,
//! whose cost grows with the chain — what makes the detailed model's cost
//! blow up with system size, the very point of the paper.
//! [`steady_state_dense`] solves the balance equations by dense LU; it is
//! the reference the tests compare the iteration against.

use crate::lu;
use crate::matrix::Matrix;
use crate::sparse::CsrMatrix;
use crate::NumericError;

/// Verifies that `p` is row-stochastic to within `tol`.
///
/// # Errors
///
/// Returns [`NumericError::InvalidArgument`] naming the offending row.
pub fn check_stochastic(p: &CsrMatrix, tol: f64) -> Result<(), NumericError> {
    if p.rows() != p.cols() {
        return Err(NumericError::DimensionMismatch { expected: p.rows(), actual: p.cols() });
    }
    for (row, sum) in p.row_sums().iter().enumerate() {
        if (sum - 1.0).abs() > tol {
            return Err(NumericError::InvalidArgument(format!(
                "row {row} of transition matrix sums to {sum}, not 1"
            )));
        }
    }
    Ok(())
}

/// Solves `π P = π, Σ π = 1` directly via dense LU.
///
/// Replaces the last balance equation with the normalization constraint, the
/// textbook approach for irreducible chains.
///
/// # Errors
///
/// Returns [`NumericError::SingularMatrix`] when the chain is reducible (the
/// balance system is then rank-deficient even after normalization) and
/// propagates dimension errors.
///
/// # Example
///
/// ```
/// use snoop_numeric::markov::steady_state_dense;
/// use snoop_numeric::sparse::{CsrMatrix, Triplet};
///
/// # fn main() -> Result<(), snoop_numeric::NumericError> {
/// // A two-state chain: stays with prob 0.9 / 0.8.
/// let p = CsrMatrix::from_triplets(2, 2, &[
///     Triplet { row: 0, col: 0, value: 0.9 },
///     Triplet { row: 0, col: 1, value: 0.1 },
///     Triplet { row: 1, col: 0, value: 0.2 },
///     Triplet { row: 1, col: 1, value: 0.8 },
/// ])?;
/// let pi = steady_state_dense(&p)?;
/// assert!((pi[0] - 2.0 / 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn steady_state_dense(p: &CsrMatrix) -> Result<Vec<f64>, NumericError> {
    let _probe_span = crate::probe::span("steady_state_dense");
    check_stochastic(p, 1e-9)?;
    let n = p.rows();
    if n == 1 {
        return Ok(vec![1.0]);
    }

    // Build A = P^T - I with the last row replaced by all-ones (Σ π = 1).
    let mut a = Matrix::zeros(n, n);
    for r in 0..n {
        for (c, v) in p.row_entries(r) {
            a[(c, r)] += v;
        }
    }
    for i in 0..n {
        a[(i, i)] -= 1.0;
    }
    for j in 0..n {
        a[(n - 1, j)] = 1.0;
    }
    let mut b = vec![0.0; n];
    b[n - 1] = 1.0;

    let mut pi = lu::solve(&a, &b)?;
    // Clean tiny negative round-off and renormalize.
    for v in &mut pi {
        if *v < 0.0 && *v > -1e-9 {
            *v = 0.0;
        }
    }
    let total: f64 = pi.iter().sum();
    for v in &mut pi {
        *v /= total;
    }
    Ok(pi)
}

/// Convergence tolerance on the max-norm update residual of one sweep.
const TOLERANCE: f64 = 1e-15;
/// Sweep budget; past it the solve reports [`NumericError::NoConvergence`].
const MAX_SWEEPS: usize = 200_000;
/// Damping factor α of the update `π ← α·πP + (1−α)·π` (removes
/// periodicity without moving the fixed point).
const DAMPING: f64 = 0.9;
/// Sweeps between guarded Aitken Δ² extrapolations.
const AITKEN_PERIOD: usize = 16;

/// A solved stationary distribution and the sweeps it took.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseSolve {
    /// The stationary distribution.
    pub pi: Vec<f64>,
    /// Power-method sweeps spent (0 for a one-state chain).
    pub iterations: usize,
}

/// Solves `π P = π` on a sparse chain by damped, Aitken-accelerated power
/// iteration.
///
/// This is the production steady-state solver for GTPN reachability
/// chains, whose transition matrices are extremely sparse (a handful of
/// successors per tangible state) and whose size is the paper's cost
/// driver. The iteration starts from `initial` when given (a reducible
/// chain then converges to the recurrent class actually entered from that
/// distribution), damps every sweep by α = 0.9, tries a guarded
/// componentwise Aitken Δ² extrapolation every 16 sweeps, and stops when
/// the max-norm update residual falls below 1e-15.
///
/// The solve is single-threaded and fully deterministic: the same matrix
/// and initial distribution produce bit-identical results on every run.
///
/// # Errors
///
/// Returns [`NumericError::NoConvergence`] when 200 000 sweeps do not
/// reach the tolerance, and propagates stochasticity/dimension errors.
pub fn steady_state_sparse(
    p: &CsrMatrix,
    initial: Option<&[f64]>,
) -> Result<SparseSolve, NumericError> {
    // Observational only; see `crate::probe` — values recorded here are
    // never read back, so collection cannot change the solve.
    let _probe_span = crate::probe::span("gtpn_steady_state");
    crate::probe::counter_add("markov.sparse_solves", 1);
    power_iterate(p, initial, MAX_SWEEPS)
}

/// The iteration behind [`steady_state_sparse`], with its sweep budget as
/// an argument so tests can exhaust it.
fn power_iterate(
    p: &CsrMatrix,
    initial: Option<&[f64]>,
    max_sweeps: usize,
) -> Result<SparseSolve, NumericError> {
    check_stochastic(p, 1e-9)?;
    let n = p.rows();
    if n == 1 {
        return Ok(SparseSolve { pi: vec![1.0], iterations: 0 });
    }
    if let Some(init) = initial {
        if init.len() != n {
            return Err(NumericError::DimensionMismatch { expected: n, actual: init.len() });
        }
    }

    // Start from the caller's distribution mixed with a tiny uniform floor
    // (avoids pathological zero patterns), or uniform when none is given.
    let mut pi = match initial {
        Some(init) => {
            let mut pi = vec![1e-9; n];
            for (slot, &mass) in pi.iter_mut().zip(init) {
                *slot += mass.max(0.0);
            }
            pi
        }
        None => vec![1.0; n],
    };
    normalize(&mut pi);

    // `π^T P` on the CSR of P is a column-scatter; transposing once turns
    // every sweep into the unrolled row-gather kernel with the damped
    // update and convergence residual fused into the same pass
    // (`CsrMatrix::power_sweep_into`). The transpose is O(nnz), repaid
    // within the first few of the typically hundreds of sweeps.
    let pt = p.transpose();
    // All sweep buffers are allocated once and reused: `next` receives
    // each update, `prev1`/`prev2` hold the Aitken iterate history.
    let mut next = vec![0.0; n];
    let mut prev2: Vec<f64> = Vec::new();
    let mut prev1: Vec<f64> = Vec::new();
    let mut residual = f64::INFINITY;
    for iteration in 1..=max_sweeps {
        std::mem::swap(&mut prev2, &mut prev1);
        prev1.clear();
        prev1.extend_from_slice(&pi);
        residual = pt.power_sweep_into(&pi, DAMPING, &mut next)?;
        std::mem::swap(&mut pi, &mut next);
        normalize(&mut pi);
        if residual < TOLERANCE {
            crate::probe::counter_add("markov.power_iterations", iteration as u64);
            crate::probe::record("markov.power_residual", residual);
            return Ok(SparseSolve { pi, iterations: iteration });
        }
        if iteration % AITKEN_PERIOD == 0 && !prev2.is_empty() {
            // Guarded acceleration: adopt the Δ² extrapolation only when a
            // trial update from it has a smaller residual than the current
            // iterate (componentwise Aitken can overshoot when the modes
            // are mixed, so unguarded acceleration may regress).
            if let Some(accelerated) = aitken_extrapolate(&prev2, &prev1, &pi) {
                let trial_residual = pt.power_sweep_into(&accelerated, DAMPING, &mut next)?;
                if trial_residual < residual {
                    std::mem::swap(&mut pi, &mut next);
                    normalize(&mut pi);
                    // Start a fresh iterate history: mixing pre- and
                    // post-jump iterates would corrupt the next Δ².
                    prev1.clear();
                    prev2.clear();
                }
            }
        }
    }

    crate::probe::counter_add("markov.power_iterations", max_sweeps as u64);
    crate::probe::record("markov.power_residual", residual);
    Err(NumericError::NoConvergence { iterations: max_sweeps, residual })
}

/// Componentwise Aitken Δ² over three consecutive iterates; `None` when
/// the extrapolation is numerically unsafe (non-finite, negative mass, or
/// degenerate denominators throughout).
fn aitken_extrapolate(x0: &[f64], x1: &[f64], x2: &[f64]) -> Option<Vec<f64>> {
    let mut out = Vec::with_capacity(x2.len());
    for i in 0..x2.len() {
        let d1 = x1[i] - x0[i];
        let d2 = x2[i] - x1[i];
        let denom = d2 - d1;
        let v = if denom.abs() > 1e-300 { x2[i] - d2 * d2 / denom } else { x2[i] };
        if !v.is_finite() || v < -1e-9 {
            return None;
        }
        out.push(v.max(0.0));
    }
    let total: f64 = out.iter().sum();
    if !(total.is_finite() && total > 0.0) {
        return None;
    }
    for v in &mut out {
        *v /= total;
    }
    Some(out)
}

fn normalize(pi: &mut [f64]) {
    let total: f64 = pi.iter().sum();
    if total > 0.0 {
        for v in pi {
            *v /= total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::Triplet;

    fn two_state() -> CsrMatrix {
        CsrMatrix::from_triplets(
            2,
            2,
            &[
                Triplet { row: 0, col: 0, value: 0.9 },
                Triplet { row: 0, col: 1, value: 0.1 },
                Triplet { row: 1, col: 0, value: 0.2 },
                Triplet { row: 1, col: 1, value: 0.8 },
            ],
        )
        .unwrap()
    }

    /// A birth-death chain on `n` states with up-probability `p`.
    fn birth_death(n: usize, p: f64) -> CsrMatrix {
        let mut t = Vec::new();
        for i in 0..n {
            if i + 1 < n {
                t.push(Triplet { row: i, col: i + 1, value: p });
            } else {
                t.push(Triplet { row: i, col: i, value: p });
            }
            if i > 0 {
                t.push(Triplet { row: i, col: i - 1, value: 1.0 - p });
            } else {
                t.push(Triplet { row: i, col: i, value: 1.0 - p });
            }
        }
        CsrMatrix::from_triplets(n, n, &t).unwrap()
    }

    #[test]
    fn dense_two_state() {
        let pi = steady_state_dense(&two_state()).unwrap();
        assert!((pi[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((pi[1] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn birth_death_is_geometric() {
        // Detailed balance: pi[i+1]/pi[i] = p/(1-p).
        let p = 0.25;
        let pi = steady_state_dense(&birth_death(10, p)).unwrap();
        let ratio = p / (1.0 - p);
        for i in 0..9 {
            assert!((pi[i + 1] / pi[i] - ratio).abs() < 1e-9);
        }
    }

    #[test]
    fn single_state_chain() {
        let p = CsrMatrix::from_triplets(1, 1, &[Triplet { row: 0, col: 0, value: 1.0 }]).unwrap();
        assert_eq!(steady_state_dense(&p).unwrap(), vec![1.0]);
    }

    #[test]
    fn non_stochastic_rejected() {
        let p = CsrMatrix::from_triplets(2, 2, &[Triplet { row: 0, col: 0, value: 0.5 }]).unwrap();
        assert!(steady_state_dense(&p).is_err());
    }

    #[test]
    fn sparse_two_state_matches_closed_form() {
        // π = (q, p)/(p + q) for leave-probabilities p = 0.1, q = 0.2.
        let solve = steady_state_sparse(&two_state(), None).unwrap();
        assert!(solve.iterations > 0);
        assert!((solve.pi[0] - 2.0 / 3.0).abs() < 1e-14, "pi = {:?}", solve.pi);
        assert!((solve.pi[1] - 1.0 / 3.0).abs() < 1e-14, "pi = {:?}", solve.pi);
    }

    #[test]
    fn sparse_large_chain_matches_dense() {
        let p = birth_death(80, 0.4);
        let dense = steady_state_dense(&p).unwrap();
        let solve = steady_state_sparse(&p, None).unwrap();
        assert!(solve.iterations > 0);
        for (a, b) in dense.iter().zip(&solve.pi) {
            assert!((a - b).abs() < 1e-9, "dense {a} vs sparse {b}");
        }
    }

    #[test]
    fn sparse_aitken_accelerates_slow_chain() {
        // Near-critical birth-death: second eigenvalue close to 1, so the
        // damped power method alone needs ~17 200 sweeps to reach the
        // tolerance; the guarded Aitken steps bring that to ~4 600 without
        // moving the answer.
        const SLOW_CHAIN_SWEEP_BOUND: usize = 6_000;
        let p = birth_death(60, 0.49);
        let dense = steady_state_dense(&p).unwrap();
        let solve = steady_state_sparse(&p, None).unwrap();
        assert!(
            solve.iterations <= SLOW_CHAIN_SWEEP_BOUND,
            "{} sweeps, bound {SLOW_CHAIN_SWEEP_BOUND}",
            solve.iterations
        );
        for (a, b) in dense.iter().zip(&solve.pi) {
            assert!((a - b).abs() < 1e-12, "dense {a} vs sparse {b}");
        }
    }

    #[test]
    fn sparse_respects_initial_distribution_on_reducible_chain() {
        // Two absorbing states: the stationary distribution depends on the
        // starting state, which only the iterative path can honour.
        let p = CsrMatrix::from_triplets(
            3,
            3,
            &[
                Triplet { row: 0, col: 0, value: 1.0 },
                Triplet { row: 1, col: 0, value: 0.5 },
                Triplet { row: 1, col: 2, value: 0.5 },
                Triplet { row: 2, col: 2, value: 1.0 },
            ],
        )
        .unwrap();
        let solve = steady_state_sparse(&p, Some(&[0.0, 1.0, 0.0])).unwrap();
        assert!((solve.pi[0] - 0.5).abs() < 1e-6, "pi = {:?}", solve.pi);
        assert!((solve.pi[2] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn sparse_periodic_chain_converges() {
        let p = CsrMatrix::from_triplets(
            2,
            2,
            &[
                Triplet { row: 0, col: 1, value: 1.0 },
                Triplet { row: 1, col: 0, value: 1.0 },
            ],
        )
        .unwrap();
        let solve = steady_state_sparse(&p, None).unwrap();
        assert!((solve.pi[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn sparse_rejects_bad_initial_length() {
        let err = steady_state_sparse(&two_state(), Some(&[1.0]));
        assert!(err.is_err());
    }

    #[test]
    fn sparse_budget_exhaustion_is_no_convergence() {
        // One sweep is never enough; the solve must say so, not guess.
        let err = power_iterate(&birth_death(20, 0.4), None, 1).unwrap_err();
        assert!(
            matches!(err, NumericError::NoConvergence { iterations: 1, residual } if residual > 0.0),
            "{err:?}"
        );
    }

    #[test]
    fn sparse_is_deterministic() {
        let p = birth_death(50, 0.45);
        let a = steady_state_sparse(&p, None).unwrap();
        let b = steady_state_sparse(&p, None).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn steady_state_sums_to_one() {
        let pi = steady_state_dense(&birth_death(30, 0.45)).unwrap();
        let sum: f64 = pi.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(pi.iter().all(|&v| v >= 0.0));
    }
}
