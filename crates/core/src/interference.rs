//! The cache-interference submodel (Section 3.1 "Cache Interference" and
//! Appendix B).
//!
//! Bus requests have priority over processor requests in a cache; dual
//! directories mean only requests that *require action* delay the
//! processor. The submodel estimates, for a request that could be handled
//! locally, how many consecutive bus requests delay it
//! (`n_interference`, Eq. 13) and for how long each (`t_interference`).
//!
//! Appendix B gives the two building blocks:
//!
//! * `p`  — probability a bus request issued by another cache requires some
//!   action in this cache (invalidation, update, or supply),
//! * `p′ ≤ p` — probability it occupies this cache *for the entire bus
//!   transaction* (supplying data or receiving a broadcast word, as opposed
//!   to a quick invalidation).
//!
//! Reconstruction notes (the appendix is partially ambiguous): a bus
//! request is a read/read-mod with probability `p_rr/(p_rr + p_bc)`. Given
//! that, it concerns this cache if it targets a shared block this cache
//! holds — the paper approximates "holds a copy" by the constant 0.5.
//! Given it holds a copy, this cache is *the supplier* with probability
//! `2/(N−1)` (a supplied block "is equally likely to be supplied by any of
//! the other caches", of which `(N−1)·0.5` are expected to hold it), if the
//! block is cache-suppliable (`csupply`-weighted share) and still resident
//! (the retention factor `1 − (rep_p·p_private + rep_sw·p_sw)`).

use snoop_workload::derived::ModelInputs;

/// Probability that a given other cache holds a copy of a referenced shared
/// block — the Appendix-B constant 0.5.
const HOLDS_COPY: f64 = 0.5;

/// The interference probabilities and times for one system size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interference {
    /// `p`: probability a snooped bus request requires action here.
    pub p: f64,
    /// `p′`: probability it occupies the cache for the whole transaction.
    pub p_prime: f64,
    /// Mean cache occupancy per interfering request (cycles).
    pub t_interference: f64,
}

impl Interference {
    /// Computes `p`, `p′` and `t_interference` from the workload masses for
    /// an `n`-processor system.
    pub fn compute(inputs: &ModelInputs, n: usize) -> Self {
        let total_bus = inputs.p_bc + inputs.p_rr;
        if total_bus <= 0.0 || n < 2 {
            return Interference { p: 0.0, p_prime: 0.0, t_interference: 0.0 };
        }

        // Appendix B: p = p_a + p_b.
        // p_a: read/read-mod to a shared block this cache holds.
        let p_a = HOLDS_COPY * inputs.shared_miss_mass / total_bus;
        // p_b: broadcast to a shared-writable block this cache holds
        // (private broadcasts never concern other caches).
        let p_b = HOLDS_COPY * inputs.sw_broadcast_mass / total_bus;
        let p = p_a + p_b;

        // P(this cache supplies | it holds a copy of the missed block):
        // chosen among the (N−1)·0.5 expected holders, weighted by the
        // cache-suppliable share and the retention factor.
        let suppliable_share = if inputs.shared_miss_mass > 0.0 {
            inputs.csupply_weighted_mass / inputs.shared_miss_mass
        } else {
            0.0
        };
        let supplies = (2.0 / ((n - 1) as f64)).min(1.0) * suppliable_share * inputs.retention;

        // p′: broadcasts occupy the cache fully (update or word delivery);
        // reads occupy fully only when this cache supplies.
        let p_prime = p_b + p_a * supplies;

        // Mean occupancy per interfering request: 1 cycle for the action
        // itself, plus — when this cache is the supplier — the block
        // transfer and, if the supply also writes memory (Write-Once dirty
        // supply), a second block time.
        let t_interference = if p > 0.0 {
            let wb_share = if inputs.csupply_weighted_mass > 0.0 {
                inputs.dirty_supply_mass / inputs.csupply_weighted_mass
            } else {
                0.0
            };
            1.0 + (p_a / p)
                * supplies
                * (inputs.block_cycles + wb_share * inputs.block_cycles)
        } else {
            0.0
        };

        Interference { p, p_prime, t_interference }
    }

    /// Equation (13): mean number of consecutive bus requests that delay a
    /// processor request, given the mean bus queue length `q_bus`:
    ///
    /// `n_interference = p · (1 − p′^Q̄) / (1 − p′)`.
    ///
    /// The closed form sums the geometric chain of full-duration holds
    /// capped at the queue length.
    pub fn n_interference(&self, q_bus: f64) -> f64 {
        if self.p <= 0.0 || q_bus <= 0.0 {
            return 0.0;
        }
        if self.p_prime >= 1.0 {
            // Degenerate limit of Eq. 13 as p′ → 1.
            return self.p * q_bus;
        }
        self.p * (1.0 - self.p_prime.powf(q_bus)) / (1.0 - self.p_prime)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoop_protocol::ModSet;
    use snoop_workload::params::{SharingLevel, WorkloadParams};
    use snoop_workload::timing::TimingModel;

    fn inputs(params: &WorkloadParams, mods: ModSet) -> ModelInputs {
        ModelInputs::derive_adjusted(params, mods, &TimingModel::default()).unwrap()
    }

    #[test]
    fn p_prime_never_exceeds_p() {
        for level in SharingLevel::ALL {
            for mods in ModSet::power_set() {
                let i = inputs(&WorkloadParams::appendix_a(level), mods);
                for n in [2, 4, 10, 100] {
                    let f = Interference::compute(&i, n);
                    assert!(
                        f.p_prime <= f.p + 1e-12,
                        "{level} {mods} N={n}: p'={} > p={}",
                        f.p_prime,
                        f.p
                    );
                    assert!(f.p <= 1.0 && f.p >= 0.0);
                }
            }
        }
    }

    #[test]
    fn single_processor_has_no_interference() {
        let i = inputs(&WorkloadParams::default(), ModSet::new());
        let f = Interference::compute(&i, 1);
        assert_eq!(f.p, 0.0);
        assert_eq!(f.n_interference(5.0), 0.0);
    }

    #[test]
    fn interference_is_small_for_appendix_a() {
        // Realistic workloads: cache interference is a minor effect.
        let i = inputs(&WorkloadParams::appendix_a(SharingLevel::Five), ModSet::new());
        let f = Interference::compute(&i, 10);
        assert!(f.p < 0.1, "p = {}", f.p);
        assert!(f.t_interference >= 1.0);
    }

    #[test]
    fn stress_workload_interferes_heavily() {
        // Section 4.3: csupply = 1, p_sw = 0.2, h_sw = 0.1 maximizes cache
        // interference.
        let normal = inputs(&WorkloadParams::appendix_a(SharingLevel::Five), ModSet::new());
        let stress = inputs(&WorkloadParams::stress(), ModSet::new());
        let fn_ = Interference::compute(&normal, 10);
        let fs = Interference::compute(&stress, 10);
        assert!(fs.p > 3.0 * fn_.p, "stress p = {}, normal p = {}", fs.p, fn_.p);
        assert!(fs.t_interference > fn_.t_interference);
    }

    #[test]
    fn n_interference_closed_form_limits() {
        let f = Interference { p: 0.4, p_prime: 0.0, t_interference: 1.0 };
        // p′ = 0: exactly one interfering request can hold the cache.
        assert!((f.n_interference(5.0) - 0.4).abs() < 1e-12);

        let f = Interference { p: 0.4, p_prime: 1.0, t_interference: 1.0 };
        // p′ = 1: every queued request chains.
        assert!((f.n_interference(5.0) - 2.0).abs() < 1e-12);

        let f = Interference { p: 0.4, p_prime: 0.5, t_interference: 1.0 };
        let expected = 0.4 * (1.0 - 0.5f64.powf(3.0)) / 0.5;
        assert!((f.n_interference(3.0) - expected).abs() < 1e-12);
    }

    #[test]
    fn n_interference_monotone_in_queue_length() {
        let f = Interference { p: 0.3, p_prime: 0.4, t_interference: 1.5 };
        let mut last = 0.0;
        for q in [0.5, 1.0, 2.0, 4.0, 8.0] {
            let v = f.n_interference(q);
            assert!(v >= last);
            last = v;
        }
        // Bounded by the geometric series limit p/(1−p′).
        assert!(last <= 0.3 / 0.6 + 1e-12);
    }

    #[test]
    fn mod4_raises_broadcast_interference() {
        let base = inputs(&WorkloadParams::appendix_a(SharingLevel::Twenty), ModSet::new());
        let m14 = inputs(
            &WorkloadParams::appendix_a(SharingLevel::Twenty),
            ModSet::from_numbers(&[1, 4]).unwrap(),
        );
        let fb = Interference::compute(&base, 10);
        let f14 = Interference::compute(&m14, 10);
        // Updates occupy caches fully: p′ share grows under mod 4.
        assert!(
            f14.p_prime / f14.p.max(1e-12) > fb.p_prime / fb.p.max(1e-12),
            "mod4 p'/p = {}, base = {}",
            f14.p_prime / f14.p,
            fb.p_prime / fb.p
        );
    }

    #[test]
    fn mod2_shortens_interference_time() {
        // "the calculations of t_contention no longer includes the term for
        // cache supply write-back".
        let base = inputs(&WorkloadParams::appendix_a(SharingLevel::Twenty), ModSet::new());
        let m2 = inputs(
            &WorkloadParams::appendix_a(SharingLevel::Twenty),
            ModSet::from_numbers(&[2]).unwrap(),
        );
        let fb = Interference::compute(&base, 10);
        let f2 = Interference::compute(&m2, 10);
        assert!(f2.t_interference < fb.t_interference);
    }

    #[test]
    fn supplies_probability_shrinks_with_system_size() {
        let i = inputs(&WorkloadParams::stress(), ModSet::new());
        let small = Interference::compute(&i, 3);
        let large = Interference::compute(&i, 30);
        assert!(large.p_prime < small.p_prime);
        // p itself is size-independent.
        assert!((large.p - small.p).abs() < 1e-12);
    }

    #[test]
    fn interference_ablation_moves_write_once_speedup_by_under_one_percent() {
        // Zeroing the Appendix-B masses (the submodel switched off) and
        // re-solving Write-Once at N = 10: the submodel's contribution to
        // speedup, in percent, pinned to ±0.05 percentage points.
        use crate::solver::{MvaModel, SolverOptions};
        let cases = [
            ("stress", WorkloadParams::stress(), 0.47),
            ("1%", WorkloadParams::appendix_a(SharingLevel::One), 0.09),
            ("5%", WorkloadParams::appendix_a(SharingLevel::Five), 0.29),
            ("20%", WorkloadParams::appendix_a(SharingLevel::Twenty), 0.62),
        ];
        for (label, params, expected_pct) in cases {
            let full =
                ModelInputs::derive(&params, ModSet::new(), &TimingModel::default()).unwrap();
            let ablated = ModelInputs {
                shared_miss_mass: 0.0,
                sw_broadcast_mass: 0.0,
                csupply_weighted_mass: 0.0,
                dirty_supply_mass: 0.0,
                ..full
            };
            let options = SolverOptions::default();
            let with = MvaModel::new(full).solve(10, &options).unwrap().speedup;
            let without = MvaModel::new(ablated).solve(10, &options).unwrap().speedup;
            let delta_pct = (without / with - 1.0) * 100.0;
            assert!(
                (delta_pct - expected_pct).abs() <= 0.05,
                "{label}: ablation delta {delta_pct:+.3}% vs pinned {expected_pct:+.2}%"
            );
        }
    }
}
