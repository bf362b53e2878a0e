//! The fixed-point solver (Section 3.2).
//!
//! The mean-value equations are cyclically interdependent: the response
//! time `R` depends on the bus and memory waiting times, which depend on
//! the utilizations, which depend on `R`. Following the paper,
//! [`MvaModel::solve_traced`] iterates the map `[w_bus, w_mem, R]` from
//! zero waiting times until the iterates stop moving; one application of
//! the map evaluates Eqs. (1)–(13) in dependency order.
//!
//! [`MvaModel::solve`] finds the same fixed point as the root of one
//! scalar equation. At a fixed point, Eqs. (11)–(12) give `w_mem` in
//! closed form from `R`, which fixes `U_bus`, `p_busy`, `t_bus` and
//! `t_res` (Eqs. 7–10). Eq. (5)'s bus wait is affine in `w_bus` through
//! `Q̄_bus` (Eq. 6), so `w_bus = max(0, c/(1 − β))` with
//! `β = (N−1)(p_bc + p_rr)·t_bus/R`. What is left is
//! `F(R) = R − R′(R) = 0`, solved by bracketed false position
//! (Anderson–Björck) from a lower end where `β` has just fallen to 1.
//! Plain substitution slows to hundreds of iterations near saturation,
//! where its linear rate approaches 1; the bracketed root does not.

use snoop_numeric::NumericError;
use snoop_protocol::ModSet;
use snoop_workload::derived::ModelInputs;
use snoop_workload::params::WorkloadParams;
use snoop_workload::timing::TimingModel;

use crate::equations as eq;
use crate::interference::Interference;
use crate::outputs::MvaSolution;
use crate::MvaError;

/// Options controlling the fixed-point iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverOptions {
    /// Maximum iterations: map applications for
    /// [`MvaModel::solve_traced`] (the paper needs ≤ 15 at engineering
    /// tolerance), evaluations of the scalar map for [`MvaModel::solve`].
    pub max_iterations: usize,
    /// Relative convergence tolerance on `[w_bus, w_mem, R]`.
    pub tolerance: f64,
    /// Damping factor in `(0, 1]` of [`MvaModel::solve_traced`]'s
    /// iteration; 1 is the paper's plain iteration. [`MvaModel::solve`]
    /// checks its range but has no use for it.
    pub damping: f64,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions { max_iterations: 10_000, tolerance: 1e-12, damping: 1.0 }
    }
}

impl SolverOptions {
    /// The paper's engineering tolerance (used by the "≤ 15 iterations"
    /// reproduction; the paper does not state its tolerance — 1e-3 on the
    /// iterates reproduces its iteration counts for the system sizes it
    /// compares against the GTPN).
    pub fn paper() -> Self {
        SolverOptions { max_iterations: 500, tolerance: 1e-3, damping: 1.0 }
    }
}

/// An MVA model instance: derived inputs, ready to solve for any `N`.
///
/// # Example
///
/// ```
/// use snoop_mva::{MvaModel, SolverOptions};
/// use snoop_protocol::ModSet;
/// use snoop_workload::params::WorkloadParams;
///
/// # fn main() -> Result<(), snoop_mva::MvaError> {
/// let model = MvaModel::for_protocol(&WorkloadParams::default(), ModSet::new())?;
/// let s4 = model.solve(4, &SolverOptions::default())?;
/// let s8 = model.solve(8, &SolverOptions::default())?;
/// assert!(s8.speedup > s4.speedup);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MvaModel {
    inputs: ModelInputs,
}

impl MvaModel {
    /// Builds a model directly from derived inputs.
    pub fn new(inputs: ModelInputs) -> Self {
        MvaModel { inputs }
    }

    /// Derives inputs for `params` under `mods` — applying the paper's
    /// Appendix-A per-modification parameter adjustments — with the default
    /// timing model.
    ///
    /// # Errors
    ///
    /// Propagates workload validation errors.
    pub fn for_protocol(params: &WorkloadParams, mods: ModSet) -> Result<Self, MvaError> {
        let inputs = ModelInputs::derive_adjusted(params, mods, &TimingModel::default())?;
        Ok(MvaModel { inputs })
    }

    /// Like [`MvaModel::for_protocol`] with an explicit timing model.
    ///
    /// # Errors
    ///
    /// Propagates workload validation errors.
    pub fn with_timing(
        params: &WorkloadParams,
        mods: ModSet,
        timing: &TimingModel,
    ) -> Result<Self, MvaError> {
        let inputs = ModelInputs::derive_adjusted(params, mods, timing)?;
        Ok(MvaModel { inputs })
    }

    /// The derived inputs.
    pub fn inputs(&self) -> &ModelInputs {
        &self.inputs
    }

    /// One application of the mean-value map: `[w_bus, w_mem, R] →
    /// [w_bus′, w_mem′, R′]`, evaluating the equations in dependency order.
    fn step(&self, n: usize, interference: &Interference, state: [f64; 3]) -> [f64; 3] {
        let inputs = &self.inputs;
        let [w_bus, w_mem, r_prev] = state;
        // A non-positive or non-finite R is a diverged iterate, not a
        // recoverable state: emit NaN so that `solve_traced` stops with
        // `NoConvergence` instead of producing a plausible-looking queue
        // length from garbage.
        if !r_prev.is_finite() || r_prev <= 0.0 {
            return [f64::NAN; 3];
        }

        let Response { q_bus, r, .. } = self.response(n, interference, w_bus, w_mem, r_prev);

        // Bus waiting time (Eqs. 5–10).
        let u_bus = eq::bus_utilization(inputs, n, w_mem, r);
        let p_busy_bus = eq::p_busy(u_bus, n);
        let t_bus = eq::mean_bus_access(inputs, w_mem);
        let t_res = eq::bus_residual_life(inputs, w_mem);
        let w_bus_next = eq::bus_waiting_time(q_bus, p_busy_bus, t_bus, t_res);

        // Memory waiting time (Eqs. 11–12).
        let u_mem = eq::memory_utilization(inputs, n, r);
        let p_busy_mem = eq::p_busy(u_mem, n);
        let w_mem_next = eq::memory_waiting_time(inputs, p_busy_mem);

        [w_bus_next, w_mem_next, r]
    }

    /// The zero-wait response time `R₀`: Eq. (1) with every waiting time
    /// zero, the iteration's cold start (Section 3.2).
    fn zero_wait_r(&self) -> f64 {
        let inputs = &self.inputs;
        eq::response_time(
            inputs,
            0.0,
            eq::r_broadcast(inputs, 0.0, 0.0),
            eq::r_remote_read(inputs, 0.0),
        )
    }

    /// The scalar map at a trial response time `r`: the waits a fixed point
    /// with response time `r` must have, and the response time `R′` they
    /// imply, as `[w_bus, w_mem, R′]`. `None` when `β ≥ 1`, where Eq. (5)
    /// has no finite bus wait: `r` is then below the root.
    fn reduced_map(&self, n: usize, interference: &Interference, r: f64) -> Option<[f64; 3]> {
        let inputs = &self.inputs;
        // Eqs. 11–12: the memory wait follows from R alone.
        let u_mem = eq::memory_utilization(inputs, n, r);
        let w_mem = eq::memory_waiting_time(inputs, eq::p_busy(u_mem, n));
        // Eqs. 7–10 are then fixed.
        let p_busy_bus = eq::p_busy(eq::bus_utilization(inputs, n, w_mem, r), n);
        let t_bus = eq::mean_bus_access(inputs, w_mem);
        let t_res = eq::bus_residual_life(inputs, w_mem);
        // Eq. 6 is Q̄_bus = q0 + β·w_bus/t_bus, so Eq. 5 reads
        // w_bus = max(0, β·w_bus + c), whose fixed point for β < 1 is
        // max(0, c)/(1 − β).
        let q0 = eq::bus_queue_length(
            n,
            eq::r_broadcast(inputs, 0.0, w_mem),
            eq::r_remote_read(inputs, 0.0),
            r,
        );
        let beta = (n - 1) as f64 * (inputs.p_bc + inputs.p_rr) * t_bus / r;
        if beta >= 1.0 {
            return None;
        }
        let w_bus = eq::bus_waiting_time(q0, p_busy_bus, t_bus, t_res) / (1.0 - beta);
        Some([w_bus, w_mem, self.response(n, interference, w_bus, w_mem, r).r])
    }

    /// Eqs. (1)–(4), (6) and (13) at the given waits, with the bus queue
    /// taken over response time `r`.
    fn response(
        &self,
        n: usize,
        interference: &Interference,
        w_bus: f64,
        w_mem: f64,
        r: f64,
    ) -> Response {
        let inputs = &self.inputs;
        let r_bc = eq::r_broadcast(inputs, w_bus, w_mem);
        let r_rr = eq::r_remote_read(inputs, w_bus);
        let q_bus = eq::bus_queue_length(n, r_bc, r_rr, r);
        let n_interference = interference.n_interference(q_bus);
        let r_local = eq::r_local(inputs, n_interference, interference.t_interference);
        let r = eq::response_time(inputs, r_local, r_bc, r_rr);
        Response { r_bc, r_rr, q_bus, n_interference, r_local, r }
    }

    /// Finds the root of `F(R) = R − R′(R)` by false position
    /// (Anderson–Björck) and returns the fixed point `[w_bus, w_mem, R]`
    /// with the number of scalar-map evaluations spent.
    ///
    /// The bracket's lower end is the larger of `R₀`, where `F ≤ 0` (no
    /// wait is negative), and `R_β = (N−1)(p_bc + p_rr)·t_bus(w_mem = 0)`.
    /// `t_bus` grows with `w_mem ≥ 0`, so `β ≥ 1` for every `R ≤ R_β`:
    /// `F` counts as −∞ there, and that lower end needs no evaluation.
    /// R doubles from the lower end until `F > 0`; a lower end where `F`
    /// is −∞ is bisected rather than interpolated. An end kept twice in a
    /// row has its `F` scaled by `1 − F_new/F_old` (Anderson–Björck),
    /// where `F_new` replaced `F_old` at the other end, or by ½ when that
    /// factor is not positive. The solve stops when every component of
    /// `[w_bus, w_mem, R]` changed by less than the tolerance (relative)
    /// since the previous evaluation: near saturation
    /// `w_bus = c/(1 − β)` amplifies the error in R, so R's bracket alone
    /// is not a sufficient test.
    fn solve_root(
        &self,
        n: usize,
        interference: &Interference,
        options: &SolverOptions,
    ) -> Result<([f64; 3], usize), NumericError> {
        let _probe_span = snoop_numeric::probe::span("mva_solve");
        let inputs = &self.inputs;
        let r0 = self.zero_wait_r();
        let r_beta =
            (n - 1) as f64 * (inputs.p_bc + inputs.p_rr) * eq::mean_bus_access(inputs, 0.0);
        // (R, F(R)) at the ends of the bracket; `hi` is unknown until some
        // F > 0 has been seen.
        let mut lo = (r0.max(r_beta), f64::NEG_INFINITY);
        let mut hi: Option<(f64, f64)> = None;
        // Which end the last evaluation replaced (true: `hi`), for the
        // scaling of an end that is kept twice in a row.
        let mut last_replaced_hi: Option<bool> = None;
        // The last evaluation's `[w_bus, w_mem, R]`, when its waits were
        // finite, and the relative changes between successive ones.
        let mut previous: Option<[f64; 3]> = None;
        // The trajectory is kept only for the probe registry, so that an
        // untraced solve allocates nothing.
        let record = snoop_numeric::probe::enabled();
        let mut trajectory = Vec::new();
        let mut last_change = f64::INFINITY;
        for evaluation in 1..=options.max_iterations {
            let r = match hi {
                // F(R₀) may be finite; F(R_β) is −∞ by construction.
                None if evaluation == 1 && r0 >= r_beta => lo.0,
                None => 2.0 * lo.0,
                Some(hi) if lo.1 == f64::NEG_INFINITY => 0.5 * (lo.0 + hi.0),
                Some(hi) => hi.0 - hi.1 * (hi.0 - lo.0) / (hi.1 - lo.1),
            };
            let f = match self.reduced_map(n, interference, r) {
                Some([w_bus, w_mem, r_next]) => {
                    let state = [w_bus, w_mem, r];
                    let change = previous.map(|p| max_relative_change(&p, &state));
                    if let Some(change) = change {
                        last_change = change;
                        if record {
                            trajectory.push(change);
                        }
                    }
                    if r == r_next || change.is_some_and(|c| c < options.tolerance) {
                        snoop_numeric::probe::counter_add("fixed_point.solves", 1);
                        snoop_numeric::probe::hist_record(
                            "fixed_point.iterations",
                            evaluation as f64,
                        );
                        snoop_numeric::probe::record_many(
                            "fixed_point.residual_trajectory",
                            &trajectory,
                        );
                        return Ok((state, evaluation));
                    }
                    previous = Some(state);
                    r - r_next
                }
                None => {
                    previous = None;
                    f64::NEG_INFINITY
                }
            };
            if f > 0.0 {
                if let (Some(true), Some(old)) = (last_replaced_hi, hi) {
                    lo.1 *= anderson_bjorck(f, old.1);
                }
                last_replaced_hi = hi.map(|_| true);
                hi = Some((r, f));
            } else {
                if let (Some(false), Some(hi)) = (last_replaced_hi, hi.as_mut()) {
                    hi.1 *= anderson_bjorck(f, lo.1);
                }
                last_replaced_hi = hi.map(|_| false);
                lo = (r, f);
            }
        }
        snoop_numeric::probe::counter_add("fixed_point.no_convergence", 1);
        snoop_numeric::probe::record_many("fixed_point.residual_trajectory", &trajectory);
        Err(NumericError::NoConvergence {
            iterations: options.max_iterations,
            residual: last_change,
        })
    }

    /// Recomputes every reported measure from a converged state so the
    /// outputs are mutually consistent, and packages them.
    fn package_solution(
        &self,
        n: usize,
        interference: &Interference,
        values: &[f64],
        iterations: usize,
    ) -> MvaSolution {
        let inputs = &self.inputs;
        let (w_bus, w_mem) = (values[0], values[1]);
        let Response { r_bc, r_rr, q_bus, n_interference, r_local, r } =
            self.response(n, interference, w_bus, w_mem, values[2]);

        MvaSolution {
            n,
            r,
            speedup: eq::speedup(inputs, n, r),
            processing_power: eq::processing_power(inputs, n, r),
            bus_utilization: eq::bus_utilization(inputs, n, w_mem, r),
            memory_utilization: eq::memory_utilization(inputs, n, r),
            w_bus,
            w_mem,
            q_bus,
            n_interference,
            t_interference: interference.t_interference,
            r_local,
            r_broadcast: r_bc,
            r_remote_read: r_rr,
            iterations,
        }
    }

    /// Solves the model by the paper's plain successive substitution and
    /// returns the full iterate trajectory `(w_bus, w_mem, R)` per
    /// iteration — the raw material of the paper's Section 3.2 convergence
    /// claim, and the data behind the CLI's `convergence` command.
    ///
    /// From `[0, 0, R₀]`, each iteration applies the map once and moves to
    /// `d·f(x) + (1 − d)·x` for damping `d`, until no component changes by
    /// `options.tolerance` (relative) or more. The solution is packaged
    /// from the final iterate, so `history.len() − 1` is its iteration
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`MvaError::InvalidSystemSize`] for `n = 0`,
    /// [`NumericError::InvalidArgument`] for a damping outside `(0, 1]`,
    /// and [`NumericError::NoConvergence`] when the budget runs out or an
    /// iterate turns non-finite (both as [`MvaError::Numeric`]).
    pub fn solve_traced(
        &self,
        n: usize,
        options: &SolverOptions,
    ) -> Result<(MvaSolution, Vec<[f64; 3]>), MvaError> {
        if n == 0 {
            return Err(MvaError::InvalidSystemSize(0));
        }
        check_damping(options.damping)?;
        let d = options.damping;
        let interference = Interference::compute(&self.inputs, n);
        let mut x = [0.0, 0.0, self.zero_wait_r()];
        let mut history = vec![x];
        let mut residual = f64::INFINITY;
        for iteration in 1..=options.max_iterations {
            let fx = self.step(n, &interference, x);
            let next = [0, 1, 2].map(|i| d * fx[i] + (1.0 - d) * x[i]);
            if next.iter().any(|v| !v.is_finite()) {
                return Err(NumericError::NoConvergence { iterations: iteration, residual }.into());
            }
            residual = max_relative_change(&x, &next);
            x = next;
            history.push(x);
            if residual < options.tolerance {
                return Ok((self.package_solution(n, &interference, &x, iteration), history));
            }
        }
        Err(NumericError::NoConvergence { iterations: options.max_iterations, residual }.into())
    }

    /// Solves the model for `n` processors as the scalar root of
    /// `F(R) = R − R′(R)` (see the module docs), starting from zero waits.
    /// [`MvaSolution::iterations`] counts the scalar-map evaluations.
    ///
    /// # Errors
    ///
    /// Returns [`MvaError::InvalidSystemSize`] for `n = 0`,
    /// [`MvaError::Numeric`] with [`NumericError::InvalidArgument`] for a
    /// damping outside `(0, 1]`, and [`MvaError::Numeric`] with
    /// [`NumericError::NoConvergence`] when `options.max_iterations`
    /// evaluations do not meet `options.tolerance`.
    pub fn solve(&self, n: usize, options: &SolverOptions) -> Result<MvaSolution, MvaError> {
        if n == 0 {
            return Err(MvaError::InvalidSystemSize(0));
        }
        check_damping(options.damping)?;
        let interference = Interference::compute(&self.inputs, n);
        let (state, evaluations) = self.solve_root(n, &interference, options)?;
        Ok(self.package_solution(n, &interference, &state, evaluations))
    }
}

/// The response-time components at given waits (see
/// [`MvaModel::response`]).
struct Response {
    r_bc: f64,
    r_rr: f64,
    q_bus: f64,
    n_interference: f64,
    r_local: f64,
    r: f64,
}

/// Anderson–Björck's scale for the end of the bracket that is kept twice
/// in a row: `1 − f_new/f_old`, where `f_new` replaced `f_old` at the
/// other end; ½ (Illinois) when that is not positive or not a number.
fn anderson_bjorck(f_new: f64, f_old: f64) -> f64 {
    let m = 1.0 - f_new / f_old;
    if m > 0.0 {
        m
    } else {
        0.5
    }
}

/// `Ok` for a damping factor in `(0, 1]`.
fn check_damping(damping: f64) -> Result<(), NumericError> {
    if damping > 0.0 && damping <= 1.0 {
        Ok(())
    } else {
        Err(NumericError::InvalidArgument(format!("damping must lie in (0, 1], got {damping}")))
    }
}

/// Largest componentwise relative change between two states; NaN when
/// either holds a NaN, so that such a state never passes a tolerance.
fn max_relative_change(a: &[f64; 3], b: &[f64; 3]) -> f64 {
    a.iter().zip(b).fold(0.0, |max, (x, y)| {
        let change = (x - y).abs() / x.abs().max(y.abs()).max(1e-300);
        if change > max || change.is_nan() {
            change
        } else {
            max
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoop_workload::params::SharingLevel;

    fn solve(level: SharingLevel, mods: &[u8], n: usize) -> MvaSolution {
        MvaModel::for_protocol(
            &WorkloadParams::appendix_a(level),
            ModSet::from_numbers(mods).unwrap(),
        )
        .unwrap()
        .solve(n, &SolverOptions::default())
        .unwrap()
    }

    #[test]
    fn rejects_zero_processors() {
        let m = MvaModel::for_protocol(&WorkloadParams::default(), ModSet::new()).unwrap();
        assert!(matches!(
            m.solve(0, &SolverOptions::default()),
            Err(MvaError::InvalidSystemSize(0))
        ));
    }

    #[test]
    fn single_processor_has_no_waiting() {
        let s = solve(SharingLevel::Five, &[], 1);
        assert_eq!(s.w_bus, 0.0);
        assert_eq!(s.w_mem, 0.0);
        assert_eq!(s.q_bus, 0.0);
        // Table 4.1(a): 0.855 at N = 1, 5% sharing.
        assert!((s.speedup - 0.855).abs() < 0.005, "speedup = {}", s.speedup);
    }

    #[test]
    fn solutions_are_physical() {
        for level in SharingLevel::ALL {
            for mods in [&[][..], &[1], &[2], &[3], &[1, 4], &[1, 2, 3], &[1, 2, 3, 4]] {
                for n in [1, 2, 6, 10, 20, 100] {
                    let s = solve(level, mods, n);
                    assert!(
                        s.is_physical(2.5, 1.0),
                        "{level} {mods:?} N={n}: {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn speedup_is_nearly_monotone_in_n() {
        // Speedup grows with N until saturation, then flattens. A slight
        // decline past saturation is genuine model behaviour — the paper's
        // own Table 4.1(b) reads 7.09 at N = 20 and 7.04 at N = 100 — so a
        // 1% dip is tolerated.
        for level in SharingLevel::ALL {
            let mut last = 0.0;
            for n in [1, 2, 4, 6, 8, 10, 15, 20, 50, 100] {
                let s = solve(level, &[], n);
                assert!(
                    s.speedup >= last * 0.99,
                    "{level}: speedup dropped at N={n}: {} < {last}",
                    s.speedup
                );
                last = last.max(s.speedup);
            }
        }
    }

    #[test]
    fn bus_saturates_as_n_grows() {
        let s = solve(SharingLevel::Five, &[], 100);
        assert!(s.bus_utilization > 0.95, "U_bus = {}", s.bus_utilization);
        // The response time grows roughly linearly with N past saturation,
        // so speedup flattens.
        let s200 = solve(SharingLevel::Five, &[], 200);
        assert!((s200.speedup - s.speedup).abs() < 0.05);
    }

    #[test]
    fn more_sharing_means_less_speedup() {
        for n in [4, 10, 20] {
            let one = solve(SharingLevel::One, &[], n).speedup;
            let five = solve(SharingLevel::Five, &[], n).speedup;
            let twenty = solve(SharingLevel::Twenty, &[], n).speedup;
            assert!(one > five && five > twenty, "N={n}: {one} {five} {twenty}");
        }
    }

    #[test]
    fn modification_1_improves_speedup() {
        for level in SharingLevel::ALL {
            for n in [6, 10, 20] {
                let wo = solve(level, &[], n).speedup;
                let m1 = solve(level, &[1], n).speedup;
                assert!(m1 > wo, "{level} N={n}: mod1 {m1} ≤ WO {wo}");
            }
        }
    }

    #[test]
    fn modifications_2_and_3_have_little_effect() {
        // Section 4: "Speedups for modifications 2 and 3 are nearly
        // indistinguishable from the results for the protocols without
        // these modifications."
        for level in SharingLevel::ALL {
            let wo = solve(level, &[], 10).speedup;
            let m2 = solve(level, &[2], 10).speedup;
            let m3 = solve(level, &[3], 10).speedup;
            assert!((m2 - wo).abs() / wo < 0.03, "{level}: mod2 {m2} vs {wo}");
            assert!((m3 - wo).abs() / wo < 0.03, "{level}: mod3 {m3} vs {wo}");
        }
    }

    #[test]
    fn modification_4_helps_at_scale_and_sharing() {
        // Section 4.1: "Modification 4 is more advantageous as system size
        // and the level of sharing increase."
        let m1 = solve(SharingLevel::Twenty, &[1], 100).speedup;
        let m14 = solve(SharingLevel::Twenty, &[1, 4], 100).speedup;
        assert!(m14 > m1 + 1.0, "mod1+4 {m14} vs mod1 {m1}");
    }

    #[test]
    fn converges_within_16_iterations_at_paper_tolerance() {
        // Section 3.2: "Solution of the equations converged within 15
        // iterations in all experiments reported in this paper." The
        // paper's method is plain substitution, which `solve_traced` runs.
        // Our map (which carries the response time as an explicit state
        // component) needs at most 16 over the GTPN-comparison range
        // N ≤ 10 at the engineering tolerance; beyond saturation (N ≥ 15)
        // plain substitution slows as its linear rate approaches 1, which
        // `solve`'s bracketed root does not.
        for level in SharingLevel::ALL {
            for mods in [&[][..], &[1], &[2], &[3], &[1, 4], &[1, 2, 3]] {
                for n in [1, 2, 4, 6, 8, 10] {
                    let model = MvaModel::for_protocol(
                        &WorkloadParams::appendix_a(level),
                        ModSet::from_numbers(mods).unwrap(),
                    )
                    .unwrap();
                    let (s, history) = model.solve_traced(n, &SolverOptions::paper()).unwrap();
                    let iterations = history.len() - 1;
                    assert_eq!(iterations, s.iterations);
                    assert!(iterations <= 16, "{level} {mods:?} N={n}: {iterations} iterations");
                }
            }
        }
    }

    #[test]
    fn traced_solve_matches_plain_solve() {
        let model = MvaModel::for_protocol(
            &WorkloadParams::appendix_a(SharingLevel::Five),
            ModSet::new(),
        )
        .unwrap();
        let (traced, history) = model.solve_traced(10, &SolverOptions::paper()).unwrap();
        // The report packages the last iterate of the traced run itself,
        // not a second (scalar-root) solve.
        let last = history.last().unwrap();
        assert_eq!([traced.w_bus, traced.w_mem], [last[0], last[1]]);
        let interference = Interference::compute(model.inputs(), 10);
        assert_eq!(traced, model.package_solution(10, &interference, last, history.len() - 1));
        // History starts at zero waits.
        assert_eq!(history[0][0], 0.0);
        assert_eq!(history[0][1], 0.0);
        // Monotone approach for this workload: R grows from its zero-wait
        // value toward the fixed point.
        assert!(history.first().unwrap()[2] <= last[2] + 1e-9);
        assert!(history.len() >= 2);
        // At a tight tolerance both methods agree on the fixed point.
        let tight = SolverOptions::default();
        let (plain, _) = model.solve_traced(10, &tight).unwrap();
        let root = model.solve(10, &tight).unwrap();
        assert!((plain.r - root.r).abs() < 1e-9 * root.r);
    }

    /// The paper's plain substitution, the reference for `solve`:
    /// undamped, then damped 0.5 and 0.1, from cold.
    fn plain_substitution(model: &MvaModel, n: usize, options: &SolverOptions) -> MvaSolution {
        [1.0, 0.5, 0.1]
            .into_iter()
            .find_map(|damping| model.solve_traced(n, &SolverOptions { damping, ..*options }).ok())
            .map(|(s, _)| s)
            .expect("plain substitution converges")
    }

    /// Every output of `s` within 1e-9 (relative) of plain substitution's.
    fn assert_matches_plain(s: &MvaSolution, p: &MvaSolution, what: &str) {
        let fields = [
            (s.r, p.r),
            (s.speedup, p.speedup),
            (s.processing_power, p.processing_power),
            (s.bus_utilization, p.bus_utilization),
            (s.memory_utilization, p.memory_utilization),
            (s.w_bus, p.w_bus),
            (s.w_mem, p.w_mem),
            (s.q_bus, p.q_bus),
            (s.n_interference, p.n_interference),
            (s.t_interference, p.t_interference),
            (s.r_local, p.r_local),
            (s.r_broadcast, p.r_broadcast),
            (s.r_remote_read, p.r_remote_read),
        ];
        for (i, (a, b)) in fields.into_iter().enumerate() {
            assert!(
                (a - b).abs() <= 1e-9 * a.abs().max(b.abs()),
                "{what} field {i}: solve {a} vs plain {b}"
            );
        }
    }

    #[test]
    fn scalar_solve_matches_plain_substitution_over_the_grid() {
        // Every modification set × {1, 5, 20}% sharing and the stress
        // workload, at N = 1..100 plus the deep-saturation sizes.
        let sizes: Vec<usize> = (1..=100).chain([200, 500, 1000, 5000]).collect();
        let workloads = SharingLevel::ALL
            .iter()
            .map(|&level| WorkloadParams::appendix_a(level))
            .chain([WorkloadParams::stress()]);
        let options = SolverOptions::default();
        let mut evaluations = Vec::new();
        for params in workloads {
            for mods in 0..16u8 {
                let numbers: Vec<u8> = (1..=4).filter(|m| mods & (1 << (m - 1)) != 0).collect();
                let model =
                    MvaModel::for_protocol(&params, ModSet::from_numbers(&numbers).unwrap())
                        .unwrap();
                for &n in &sizes {
                    let s = model
                        .solve(n, &options)
                        .unwrap_or_else(|e| panic!("{numbers:?} N={n}: {e}"));
                    evaluations.push(s.iterations);
                    let p = plain_substitution(&model, n, &options);
                    assert_matches_plain(&s, &p, &format!("{numbers:?} N={n}"));
                }
            }
        }
        assert_eq!(evaluations.len(), 64 * sizes.len());
        evaluations.sort_unstable();
        let quantile = |q: usize| evaluations[(evaluations.len() - 1) * q / 100];
        let (p50, p99, max) = (quantile(50), quantile(99), quantile(100));
        assert!(p99 <= 24, "evaluations p50 {p50}, p99 {p99}, max {max}");
    }

    #[test]
    fn the_bracket_starts_where_beta_reaches_one() {
        // Below R_β every β is at least 1 (t_bus only grows with w_mem), so
        // the scalar map has no finite bus wait there and the root lies
        // above the bracket's lower end.
        let sizes = [2, 3, 10, 100, 1000, 10_000];
        for params in SharingLevel::ALL
            .iter()
            .map(|&level| WorkloadParams::appendix_a(level))
            .chain([WorkloadParams::stress()])
        {
            for mods in ModSet::power_set() {
                let model = MvaModel::for_protocol(&params, mods).unwrap();
                let inputs = model.inputs();
                for n in sizes {
                    let interference = Interference::compute(inputs, n);
                    let r_beta = (n - 1) as f64
                        * (inputs.p_bc + inputs.p_rr)
                        * eq::mean_bus_access(inputs, 0.0);
                    for below in [r_beta, 0.75 * r_beta, 0.5 * r_beta] {
                        assert!(
                            model.reduced_map(n, &interference, below).is_none(),
                            "{mods} N={n}: finite bus wait at R = {below} <= R_β = {r_beta}"
                        );
                    }
                    let s = model.solve(n, &SolverOptions::default()).unwrap();
                    assert!(s.r > r_beta.max(model.zero_wait_r()), "{mods} N={n}: {s}");
                }
            }
        }
    }

    #[test]
    fn deep_saturation_needs_few_evaluations() {
        // Write-Once at 5% sharing: deep in saturation the root sits just
        // above R_β, so the bracket needs few doublings.
        let model = MvaModel::for_protocol(
            &WorkloadParams::appendix_a(SharingLevel::Five),
            ModSet::new(),
        )
        .unwrap();
        for (n, most) in [(10, 12), (100, 15), (1000, 19), (10_000, 24)] {
            let s = model.solve(n, &SolverOptions::default()).unwrap();
            assert!(s.iterations <= most, "N={n}: {} evaluations", s.iterations);
        }
    }

    #[test]
    fn anderson_bjorck_scale_falls_back_to_illinois() {
        assert_eq!(anderson_bjorck(1.0, 4.0), 0.75);
        assert_eq!(anderson_bjorck(-1.0, -4.0), 0.75);
        // F did not shrink at the replaced end, or it was −∞.
        for (f_new, f_old) in [(4.0, 4.0), (5.0, 4.0), (f64::NEG_INFINITY, f64::NEG_INFINITY)] {
            assert_eq!(anderson_bjorck(f_new, f_old), 0.5, "{f_new} {f_old}");
        }
    }

    #[test]
    fn write_once_at_1_percent_sharing_n222_matches_plain_substitution() {
        // The point where plain substitution's linear rate is closest to
        // 1 on the sweep grid (it needs hundreds of damped iterations):
        // the scalar root agrees with it, directly and through the engine.
        use crate::engine::{BackendId, Engine, Scenario};

        let n = 222;
        let scenario = Scenario::appendix_a(ModSet::new(), SharingLevel::One, n);
        let model = scenario.to_mva_model().unwrap();
        let options = SolverOptions::default();
        let direct = model.solve(n, &options).unwrap();
        assert_matches_plain(&direct, &plain_substitution(&model, n, &options), "N=222");

        let eval = Engine::new()
            .with_backends(&[BackendId::Mva])
            .evaluate(&scenario)
            .remove(0)
            .result
            .unwrap();
        assert_eq!(eval.provenance.iterations, direct.iterations);
        assert_eq!(eval.speedup.to_bits(), direct.speedup.to_bits());
        assert_eq!(eval.w_bus.map(f64::to_bits), Some(direct.w_bus.to_bits()));
    }

    #[test]
    fn single_processor_is_the_first_evaluation() {
        // At N = 1 nothing waits: F(R₀) = 0 exactly, even at tolerance 0.
        let model = MvaModel::for_protocol(&WorkloadParams::default(), ModSet::new()).unwrap();
        let options = SolverOptions { tolerance: 0.0, ..SolverOptions::default() };
        let s = model.solve(1, &options).unwrap();
        assert_eq!(s.iterations, 1);
        assert_eq!(s.r, model.zero_wait_r());
    }

    #[test]
    fn exhausted_budget_is_no_convergence() {
        // A tolerance of 0 cannot be met between distinct evaluations: the
        // budget runs out and the solve says so.
        let model = MvaModel::for_protocol(&WorkloadParams::default(), ModSet::new()).unwrap();
        let options = SolverOptions { max_iterations: 10, tolerance: 0.0, damping: 0.5 };
        match model.solve(10, &options) {
            Err(MvaError::Numeric(NumericError::NoConvergence { iterations, residual })) => {
                assert_eq!(iterations, 10);
                assert!(residual.is_finite(), "{residual}");
            }
            other => panic!("expected no convergence, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_iterate_is_no_convergence() {
        // A negative think time puts R₀ below zero, where `step` emits NaN:
        // the traced loop stops with `NoConvergence` instead of returning it.
        let model = MvaModel::for_protocol(&WorkloadParams::default(), ModSet::new()).unwrap();
        let broken = MvaModel::new(ModelInputs { tau: -1e3, ..*model.inputs() });
        match broken.solve_traced(4, &SolverOptions::paper()) {
            Err(MvaError::Numeric(NumericError::NoConvergence { iterations, residual })) => {
                assert_eq!((iterations, residual), (1, f64::INFINITY));
            }
            other => panic!("expected no convergence, got {other:?}"),
        }
    }

    #[test]
    fn rejects_damping_outside_the_unit_interval() {
        let model = MvaModel::for_protocol(&WorkloadParams::default(), ModSet::new()).unwrap();
        for damping in [0.0, -1.0, 1.5, f64::NAN] {
            let base = SolverOptions { damping, ..SolverOptions::default() };
            let err = model.solve(10, &base).unwrap_err();
            assert!(err.to_string().contains(&format!("got {damping}")), "{err}");
        }
    }

    #[test]
    fn traced_solve_rejects_bad_damping() {
        let model = MvaModel::for_protocol(&WorkloadParams::default(), ModSet::new()).unwrap();
        for damping in [0.0, -1.0, 1.5, f64::NAN] {
            let base = SolverOptions { damping, ..SolverOptions::default() };
            match model.solve_traced(10, &base) {
                Err(MvaError::Numeric(NumericError::InvalidArgument(msg))) => {
                    assert!(msg.contains(&format!("got {damping}")), "{msg}");
                }
                other => panic!("damping {damping}: expected InvalidArgument, got {other:?}"),
            }
        }
    }

    #[test]
    fn saturation_regime_never_returns_non_finite() {
        // N ≥ 64 with slow memory: deep saturation, where plain
        // substitution is slowest.
        let model = MvaModel::for_protocol(&WorkloadParams::stress(), ModSet::new()).unwrap();
        for n in [64, 256, 1024] {
            let s = model.solve(n, &SolverOptions::default()).unwrap();
            assert!(s.r.is_finite() && s.w_bus.is_finite(), "N={n}: {s}");
            assert!(s.speedup.is_finite() && s.speedup > 0.0, "N={n}: {s}");
            assert!(s.is_physical(2.5, 1.0), "N={n}: {s}");
        }
    }

    #[test]
    fn stress_workload_converges() {
        let model =
            MvaModel::for_protocol(&WorkloadParams::stress(), ModSet::new()).unwrap();
        for n in [2, 10, 50] {
            let s = model.solve(n, &SolverOptions::default()).unwrap();
            assert!(s.is_physical(2.5, 1.0), "N={n}: {s}");
        }
    }

    #[test]
    fn damping_reaches_same_fixed_point() {
        let model = MvaModel::for_protocol(
            &WorkloadParams::appendix_a(SharingLevel::Twenty),
            ModSet::new(),
        )
        .unwrap();
        // `solve` has no use for damping; the traced substitution does.
        let (plain, plain_history) = model.solve_traced(10, &SolverOptions::default()).unwrap();
        let (damped, damped_history) = model
            .solve_traced(10, &SolverOptions { damping: 0.5, ..SolverOptions::default() })
            .unwrap();
        assert_ne!(plain_history, damped_history);
        assert!((plain.r - damped.r).abs() < 1e-8);
    }

    #[test]
    fn perfect_cache_gives_linear_speedup() {
        let p = WorkloadParams::builder()
            .h_private(1.0)
            .h_sro(1.0)
            .h_sw(1.0)
            .amod_private(1.0)
            .amod_sw(1.0)
            .build()
            .unwrap();
        let model = MvaModel::for_protocol(&p, ModSet::new()).unwrap();
        let s = model.solve(64, &SolverOptions::default()).unwrap();
        assert!((s.speedup - 64.0).abs() < 1e-9);
        assert_eq!(s.bus_utilization, 0.0);
    }
}
