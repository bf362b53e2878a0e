//! Damped fixed-point iteration.
//!
//! The paper's mean-value equations contain cyclic interdependencies (the
//! response time `R` depends on bus and memory waiting times, which depend on
//! `R`), so they are solved by iterating from zero waiting times until the
//! iterates stop moving. This module provides that machinery in a reusable
//! form: a vector-valued map `x ← f(x)` is applied repeatedly, optionally
//! under-relaxed, until the maximum relative change across components falls
//! below a tolerance.
//!
//! # Divergence detection
//!
//! Successive substitution is only guaranteed to converge for contraction
//! mappings, and the paper's queueing map stops contracting near bus
//! saturation. Rather than grinding to `max_iterations` on a hopeless
//! trajectory, the solver watches for four failure signatures and abandons
//! the run early with a structured [`ConvergenceFailure`]:
//!
//! * **non-finite iterates** — the map produced NaN or ±∞;
//! * **overflow** — an iterate grew beyond ~1e150, the precursor to ±∞;
//! * **residual growth** — the per-iteration step norm keeps growing over a
//!   sliding window while the iterates change by ≥ 25% per step
//!   (geometric divergence such as `x ← 2x` has a *constant* relative
//!   residual, so growth is measured on absolute step norms);
//! * **limit cycles** — the iterate revisits the point from two or three
//!   steps ago essentially exactly while still far from convergence
//!   (period-2 flip cycles such as `x ← −x + c`, and period-3 orbits).
//!
//! The failure carries the trailing residual trajectory and the last finite
//! iterate so callers can retry with damping from where the run left off.

use std::collections::VecDeque;
use std::fmt;

use crate::NumericError;

/// Iterate magnitude beyond which the run is declared overflowing: far past
/// any physical response time, but well short of `f64::MAX` so the failure
/// still carries finite values.
const OVERFLOW_LIMIT: f64 = 1e150;
/// Sliding-window length for the residual-growth detector; the detector
/// compares the two most recent windows of this many step norms.
const GROWTH_WINDOW: usize = 16;
/// The minimum step norm of the newer window must exceed the older window's
/// by this factor to flag growth.
const GROWTH_FACTOR: f64 = 4.0;
/// Residual-growth is only flagged while the relative residual is at least
/// this large — a genuinely converging run can never be flagged, because its
/// residual drops below this long before two full windows accumulate growth.
const GROWTH_MIN_RESIDUAL: f64 = 0.25;
/// A cycle must be observed on this many consecutive iterations before the
/// run is abandoned (a single near-revisit can be coincidence).
const CYCLE_CONFIRMATIONS: usize = 2;
/// Number of trailing residuals retained in a [`ConvergenceFailure`].
const TRAJECTORY_CAP: usize = 512;

/// Options controlling a fixed-point iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Maximum number of iterations before giving up.
    pub max_iterations: usize,
    /// Convergence tolerance on the maximum relative component change.
    pub tolerance: f64,
    /// Damping factor in `(0, 1]`: the next iterate is
    /// `damping * f(x) + (1 - damping) * x`. `1.0` is plain iteration.
    pub damping: f64,
    /// Record the full iterate history (for diagnostics / the paper's
    /// "converged within 15 iterations" claim).
    pub record_history: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            max_iterations: 500,
            tolerance: 1e-12,
            damping: 1.0,
            record_history: false,
        }
    }
}

/// Why a fixed-point run was abandoned before exhausting its iteration
/// budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceReason {
    /// The map produced NaN or ±∞ at the given component.
    NonFinite {
        /// Index of the offending component.
        component: usize,
    },
    /// An iterate's magnitude exceeded the overflow guard (~1e150) at the
    /// given component — the run would reach ±∞ within a few more steps.
    Overflow {
        /// Index of the offending component.
        component: usize,
    },
    /// The per-iteration step norm grew persistently across the sliding
    /// window while the iterates were still changing by ≥ 25% per step:
    /// geometric divergence.
    ResidualGrowth,
    /// The iterates revisit an earlier point (essentially exactly) while
    /// still far from the tolerance: a closed orbit that will never
    /// converge undamped.
    LimitCycle {
        /// Cycle length (2 or 3).
        period: usize,
    },
}

impl fmt::Display for DivergenceReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DivergenceReason::NonFinite { component } => {
                write!(f, "non-finite iterate at component {component}")
            }
            DivergenceReason::Overflow { component } => {
                write!(f, "iterate overflow at component {component}")
            }
            DivergenceReason::ResidualGrowth => write!(f, "growing residuals (divergence)"),
            DivergenceReason::LimitCycle { period } => {
                write!(f, "period-{period} limit cycle")
            }
        }
    }
}

/// Structured description of an abandoned fixed-point run.
///
/// Carried by [`NumericError::Diverged`]. Unlike a bare "no convergence"
/// error this records *why* the run was hopeless, the trailing residual
/// trajectory (up to 512 entries), and the last fully-finite iterate so a
/// caller can restart with damping from where the run left off.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceFailure {
    /// The failure signature that triggered abandonment.
    pub reason: DivergenceReason,
    /// Iterations performed before the run was abandoned.
    pub iterations: usize,
    /// Relative residual at the last completed iteration
    /// (`f64::INFINITY` if the run failed before completing one).
    pub residual: f64,
    /// Trailing relative residuals, oldest first (capped at 512 entries).
    pub residual_trajectory: Vec<f64>,
    /// The last iterate whose components were all finite. Always non-empty
    /// and always finite — suitable as a restart point.
    pub last_finite: Vec<f64>,
}

impl fmt::Display for ConvergenceFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} after {} iterations (residual {:.3e})",
            self.reason, self.iterations, self.residual
        )
    }
}

/// Result of a converged fixed-point iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// The converged iterate.
    pub values: Vec<f64>,
    /// Number of iterations performed; each applies the map once.
    pub iterations: usize,
    /// Maximum relative component change at the final iteration.
    pub residual: f64,
    /// Iterate history, present when [`Options::record_history`] was set.
    /// `history[0]` is the initial guess; the last entry equals `values`.
    pub history: Vec<Vec<f64>>,
}

/// A reusable fixed-point solver.
///
/// # Example
///
/// Solving the 2-d map `x = (y/2 + 1, x/2)` (fixed point `(4/3, 2/3)`):
///
/// ```
/// use snoop_numeric::fixed_point::{FixedPoint, Options};
///
/// let sol = FixedPoint::new(Options::default())
///     .solve(vec![0.0, 0.0], |x, out| {
///         out[0] = x[1] / 2.0 + 1.0;
///         out[1] = x[0] / 2.0;
///     })
///     .expect("contraction mapping converges");
/// assert!((sol.values[0] - 4.0 / 3.0).abs() < 1e-9);
/// assert!((sol.values[1] - 2.0 / 3.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct FixedPoint {
    options: Options,
}

impl FixedPoint {
    /// Creates a solver with the given options.
    pub fn new(options: Options) -> Self {
        FixedPoint { options }
    }

    /// Runs the iteration `x ← f(x)` from `initial` until convergence.
    ///
    /// The map writes its output into the slice it is handed; it must not
    /// depend on the previous content of that slice.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::NoConvergence`] if the tolerance is not met
    /// within the iteration budget, [`NumericError::Diverged`] when the run
    /// is abandoned early because it is detectably hopeless (non-finite or
    /// overflowing iterates, growing residuals or a period-2/3 limit
    /// cycle), and
    /// [`NumericError::InvalidArgument`] if `initial` is empty or the
    /// damping factor is outside `(0, 1]`.
    pub fn solve<F>(&self, initial: Vec<f64>, mut f: F) -> Result<Solution, NumericError>
    where
        F: FnMut(&[f64], &mut [f64]),
    {
        if initial.is_empty() {
            return Err(NumericError::InvalidArgument(
                "fixed-point iteration needs at least one component".into(),
            ));
        }
        if !(self.options.damping > 0.0 && self.options.damping <= 1.0) {
            return Err(NumericError::InvalidArgument(format!(
                "damping must lie in (0, 1], got {}",
                self.options.damping
            )));
        }

        // Observational only: nothing read back from the probe registry
        // influences the iteration, so metrics cannot perturb results.
        let _probe_span = crate::probe::span("fixed_point_solve");

        let n = initial.len();
        let mut current = initial;
        let mut next = vec![0.0; n];
        let mut history = Vec::new();
        if self.options.record_history {
            history.push(current.clone());
        }

        // Every buffer the loop touches is allocated here, so an iteration
        // performs no heap allocation (history recording aside).
        let mut trajectory: VecDeque<f64> = VecDeque::with_capacity(TRAJECTORY_CAP);
        // Per-iteration max-abs step norms, trailing 2·GROWTH_WINDOW.
        let mut step_norms: VecDeque<f64> = VecDeque::with_capacity(2 * GROWTH_WINDOW);
        // Trailing committed iterates for period-2/3 cycle detection.
        let mut recent = IterateRing::new(n);
        recent.push(&current);
        let (mut cycle2, mut cycle3) = (0usize, 0usize);
        // A revisit only counts as a cycle when it is essentially exact;
        // slowly-converging oscillation (eigenvalue near −1) moves the
        // iterate by far more than this between successive periods.
        let cycle_tolerance = (self.options.tolerance * 1e-3).max(1e-15);

        let mut residual = f64::INFINITY;
        for iteration in 1..=self.options.max_iterations {
            let fail = |reason, residual, trajectory: VecDeque<f64>, last_finite| {
                let trajectory = Vec::from(trajectory);
                crate::probe::counter_add("fixed_point.diverged", 1);
                crate::probe::counter_add("fixed_point.iterations", iteration as u64);
                crate::probe::record_many("fixed_point.residual_trajectory", &trajectory);
                Err(NumericError::Diverged(ConvergenceFailure {
                    reason,
                    iterations: iteration,
                    residual,
                    residual_trajectory: trajectory,
                    last_finite,
                }))
            };

            f(&current, &mut next);
            // `current` is still the last fully-finite iterate here: the
            // checks below run before anything is committed.
            if let Some(bad) = next.iter().position(|v| !v.is_finite()) {
                return fail(
                    DivergenceReason::NonFinite { component: bad },
                    residual,
                    trajectory,
                    current,
                );
            }
            if let Some(bad) = next.iter().position(|v| v.abs() > OVERFLOW_LIMIT) {
                return fail(
                    DivergenceReason::Overflow { component: bad },
                    residual,
                    trajectory,
                    current,
                );
            }
            // `next` becomes the (damped) step.
            let damping = self.options.damping;
            residual = 0.0;
            let mut step_norm = 0.0f64;
            for i in 0..n {
                let damped = damping * next[i] + (1.0 - damping) * current[i];
                let step = (damped - current[i]).abs();
                if step > step_norm {
                    step_norm = step;
                }
                let scale = damped.abs().max(current[i].abs()).max(1e-300);
                let change = step / scale;
                if change > residual {
                    residual = change;
                }
                next[i] = damped;
            }
            let converged = residual < self.options.tolerance;
            std::mem::swap(&mut current, &mut next);
            if self.options.record_history {
                history.push(current.clone());
            }
            if trajectory.len() == TRAJECTORY_CAP {
                trajectory.pop_front();
            }
            trajectory.push_back(residual);
            if converged {
                crate::probe::counter_add("fixed_point.solves", 1);
                crate::probe::counter_add("fixed_point.iterations", iteration as u64);
                crate::probe::record("fixed_point.iterations_per_solve", iteration as f64);
                crate::probe::hist_record("fixed_point.iterations", iteration as f64);
                crate::probe::record("fixed_point.final_residual", residual);
                crate::probe::record_many(
                    "fixed_point.residual_trajectory",
                    trajectory.make_contiguous(),
                );
                return Ok(Solution { values: current, iterations: iteration, residual, history });
            }

            // Residual growth: geometric divergence (e.g. `x ← 2x`) keeps
            // the *relative* residual constant, so growth is measured on
            // absolute step norms — the smallest step of the newer window
            // exceeding the older window's by GROWTH_FACTOR means every
            // recent step dwarfs every older one.
            if step_norms.len() == 2 * GROWTH_WINDOW {
                step_norms.pop_front();
            }
            step_norms.push_back(step_norm);
            if step_norms.len() == 2 * GROWTH_WINDOW && residual >= GROWTH_MIN_RESIDUAL {
                let older_min =
                    step_norms.iter().take(GROWTH_WINDOW).cloned().fold(f64::INFINITY, f64::min);
                let newer_min =
                    step_norms.iter().skip(GROWTH_WINDOW).cloned().fold(f64::INFINITY, f64::min);
                if newer_min > GROWTH_FACTOR * older_min {
                    return fail(DivergenceReason::ResidualGrowth, residual, trajectory, current);
                }
            }

            // Limit cycles: compare against the iterates two and three
            // steps back. The comparison is near-exact (cycle_tolerance),
            // so decaying oscillation is never flagged — only a genuinely
            // closed orbit, confirmed on consecutive iterations.
            let revisits = |back| {
                recent
                    .back(back)
                    .is_some_and(|old| max_relative_distance(&current, old) <= cycle_tolerance)
            };
            cycle2 = if revisits(1) { cycle2 + 1 } else { 0 };
            cycle3 = if revisits(2) { cycle3 + 1 } else { 0 };
            if cycle2 >= CYCLE_CONFIRMATIONS {
                return fail(
                    DivergenceReason::LimitCycle { period: 2 },
                    residual,
                    trajectory,
                    current,
                );
            }
            if cycle3 >= CYCLE_CONFIRMATIONS {
                return fail(
                    DivergenceReason::LimitCycle { period: 3 },
                    residual,
                    trajectory,
                    current,
                );
            }
            recent.push(&current);
        }

        crate::probe::counter_add("fixed_point.no_convergence", 1);
        crate::probe::counter_add("fixed_point.iterations", self.options.max_iterations as u64);
        crate::probe::record_many("fixed_point.residual_trajectory", trajectory.make_contiguous());
        Err(NumericError::NoConvergence {
            iterations: self.options.max_iterations,
            residual,
        })
    }
}

/// The last [`IterateRing::SLOTS`] committed iterates, kept in one
/// buffer allocated up front so that pushing an iterate only copies it.
struct IterateRing {
    buf: Vec<f64>,
    n: usize,
    /// Slot the next push overwrites.
    next: usize,
    len: usize,
}

impl IterateRing {
    /// The newest committed iterate and the three before it.
    const SLOTS: usize = 4;

    fn new(n: usize) -> Self {
        IterateRing { buf: vec![0.0; Self::SLOTS * n], n, next: 0, len: 0 }
    }

    fn slot(&mut self, slot: usize) -> &mut [f64] {
        &mut self.buf[slot * self.n..(slot + 1) * self.n]
    }

    fn push(&mut self, x: &[f64]) {
        let slot = self.next;
        self.slot(slot).copy_from_slice(x);
        self.next = (slot + 1) % Self::SLOTS;
        self.len = (self.len + 1).min(Self::SLOTS);
    }

    /// The iterate `back` pushes before the newest (`0` is the newest).
    fn back(&self, back: usize) -> Option<&[f64]> {
        (back < self.len).then(|| {
            let slot = (self.next + Self::SLOTS - 1 - back) % Self::SLOTS;
            &self.buf[slot * self.n..(slot + 1) * self.n]
        })
    }
}

/// Maximum componentwise relative distance between two equal-length
/// iterates, the metric of the limit-cycle detector.
fn max_relative_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs() / x.abs().max(y.abs()).max(1e-300))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_on_cosine() {
        let sol = FixedPoint::new(Options::default())
            .solve(vec![0.0], |x, out| out[0] = x[0].cos())
            .unwrap();
        assert!((sol.values[0] - 0.739_085_133_2).abs() < 1e-9);
    }

    #[test]
    fn linear_contraction_is_fast() {
        // x <- x/2 + 1 has fixed point 2 and contracts by 1/2 per step.
        let sol = FixedPoint::new(Options::default())
            .solve(vec![0.0], |x, out| out[0] = x[0] / 2.0 + 1.0)
            .unwrap();
        assert!((sol.values[0] - 2.0).abs() < 1e-10);
        assert!(sol.iterations < 60);
    }

    #[test]
    fn damping_stabilizes_oscillation() {
        // x <- -x + 2 oscillates forever undamped: the limit-cycle detector
        // catches the closed orbit instead of burning the budget. Damping
        // 0.5 lands on the fixed point 1.
        let undamped = FixedPoint::new(Options { max_iterations: 50, ..Options::default() })
            .solve(vec![0.0], |x, out| out[0] = -x[0] + 2.0);
        match undamped {
            Err(NumericError::Diverged(failure)) => {
                assert_eq!(failure.reason, DivergenceReason::LimitCycle { period: 2 });
                assert!(failure.iterations < 50, "caught at {}", failure.iterations);
                assert!(failure.last_finite.iter().all(|v| v.is_finite()));
            }
            other => panic!("expected limit-cycle divergence, got {other:?}"),
        }

        let damped = FixedPoint::new(Options { damping: 0.5, ..Options::default() })
            .solve(vec![0.0], |x, out| out[0] = -x[0] + 2.0)
            .unwrap();
        assert!((damped.values[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn period_2_cycle_is_caught_quickly() {
        // Regression guard: a known period-2 oscillating map must be
        // diagnosed in < 50 iterations even with a generous budget.
        let err = FixedPoint::new(Options { max_iterations: 10_000, ..Options::default() })
            .solve(vec![3.0], |x, out| out[0] = -x[0] - 4.0)
            .unwrap_err();
        match err {
            NumericError::Diverged(failure) => {
                assert_eq!(failure.reason, DivergenceReason::LimitCycle { period: 2 });
                assert!(failure.iterations < 50, "took {} iterations", failure.iterations);
                assert!(!failure.residual_trajectory.is_empty());
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn period_3_cycle_is_caught() {
        // A 3-state rotation on one component: 0 → 1 → 2 → 0 → …
        let err = FixedPoint::new(Options { max_iterations: 10_000, ..Options::default() })
            .solve(vec![0.0], |x, out| {
                out[0] = if x[0] < 0.5 {
                    1.0
                } else if x[0] < 1.5 {
                    2.0
                } else {
                    0.0
                };
            })
            .unwrap_err();
        match err {
            NumericError::Diverged(failure) => {
                assert_eq!(failure.reason, DivergenceReason::LimitCycle { period: 3 });
                assert!(failure.iterations < 50, "took {} iterations", failure.iterations);
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn geometric_divergence_is_caught_early() {
        // x <- 2x keeps a constant *relative* residual (0.5), so only the
        // absolute step-norm window can see it growing.
        let err = FixedPoint::new(Options { max_iterations: 10_000, ..Options::default() })
            .solve(vec![1.0], |x, out| out[0] = 2.0 * x[0])
            .unwrap_err();
        match err {
            NumericError::Diverged(failure) => {
                assert_eq!(failure.reason, DivergenceReason::ResidualGrowth);
                assert!(failure.iterations < 100, "took {} iterations", failure.iterations);
                assert!(failure.last_finite[0].is_finite());
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn overflow_is_caught_before_infinity() {
        // x <- x² from 10 reaches 1e150 within ~9 steps and ±∞ shortly
        // after; the overflow guard fires first, keeping last_finite usable.
        let err = FixedPoint::new(Options::default())
            .solve(vec![10.0], |x, out| out[0] = x[0] * x[0])
            .unwrap_err();
        match err {
            NumericError::Diverged(failure) => {
                assert!(matches!(failure.reason, DivergenceReason::Overflow { component: 0 }));
                assert!(failure.last_finite[0].is_finite());
            }
            other => panic!("expected overflow divergence, got {other:?}"),
        }
    }

    #[test]
    fn residual_trajectory_is_capped() {
        // x <- x + 1 drifts with constant steps (no cycle, no step growth)
        // for 1000 iterations, then turns non-finite: the failure keeps
        // only the trailing 512 residuals.
        let options = Options { max_iterations: 2000, tolerance: 0.0, ..Options::default() };
        let err = FixedPoint::new(options)
            .solve(vec![0.0], |x, out| {
                out[0] = if x[0] < 1000.0 { x[0] + 1.0 } else { f64::NAN };
            })
            .unwrap_err();
        if let NumericError::Diverged(failure) = err {
            assert!(matches!(failure.reason, DivergenceReason::NonFinite { component: 0 }));
            assert_eq!(failure.iterations, 1001);
            assert_eq!(failure.residual_trajectory.len(), 512);
        } else {
            panic!("expected divergence");
        }
    }

    #[test]
    fn history_is_recorded() {
        let sol = FixedPoint::new(Options { record_history: true, ..Options::default() })
            .solve(vec![0.0], |x, out| out[0] = x[0] / 2.0 + 1.0)
            .unwrap();
        assert_eq!(sol.history.len(), sol.iterations + 1);
        assert_eq!(sol.history[0], vec![0.0]);
        assert_eq!(sol.history.last().unwrap(), &sol.values);
    }

    #[test]
    fn rejects_empty_initial() {
        let err = FixedPoint::new(Options::default())
            .solve(vec![], |_, _| {})
            .unwrap_err();
        assert!(matches!(err, NumericError::InvalidArgument(_)));
    }

    #[test]
    fn rejects_bad_damping() {
        let err = FixedPoint::new(Options { damping: 0.0, ..Options::default() })
            .solve(vec![1.0], |x, out| out[0] = x[0])
            .unwrap_err();
        assert!(matches!(err, NumericError::InvalidArgument(_)));
    }

    #[test]
    fn rejects_non_finite_map() {
        let err = FixedPoint::new(Options::default())
            .solve(vec![1.0], |_, out| out[0] = f64::NAN)
            .unwrap_err();
        match err {
            NumericError::Diverged(failure) => {
                assert_eq!(failure.reason, DivergenceReason::NonFinite { component: 0 });
                assert_eq!(failure.last_finite, vec![1.0]);
            }
            other => panic!("expected non-finite divergence, got {other:?}"),
        }
    }

    #[test]
    fn already_converged_input_returns_quickly() {
        let sol = FixedPoint::new(Options::default())
            .solve(vec![2.0], |x, out| out[0] = x[0] / 2.0 + 1.0)
            .unwrap();
        assert_eq!(sol.iterations, 1);
    }
}
