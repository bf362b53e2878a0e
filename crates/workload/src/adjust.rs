//! Per-modification workload-parameter adjustments (Appendix A, notes).
//!
//! The paper's Appendix A prescribes how the workload parameters shift when
//! a protocol modification changes block lifetimes:
//!
//! > "the value of `rep_p` is increased to 0.3 for Modification 1; `rep_sw`
//! > is increased to 0.6 for Modifications 2 or 3, and to 0.7 for a protocol
//! > with both modifications; and, finally, `hit_sw` is set to 0.95 for the
//! > protocol with modifications 1 and 4."
//!
//! The rationale: modification 1 keeps private blocks exclusive so more of
//! them are dirty at replacement; modifications 2 and 3 leave blocks dirty
//! that Write-Once would have written through; modification 4 stops
//! invalidating shared-writable copies, so their hit rate jumps.

use snoop_protocol::{ModSet, Modification};

use crate::params::WorkloadParams;

/// `rep_p` under modification 1 (paper: 0.3, up from 0.2).
const REP_P_MOD1: f64 = 0.3;
/// `rep_sw` under modification 2 *or* 3 (paper: 0.6, up from 0.5).
const REP_SW_MOD2_OR_3: f64 = 0.6;
/// `rep_sw` under modifications 2 *and* 3 (paper: 0.7).
const REP_SW_MOD2_AND_3: f64 = 0.7;
/// `h_sw` under modifications 1 *and* 4 (paper: 0.95, up from 0.5).
const H_SW_MOD1_AND_4: f64 = 0.95;

/// Applies the paper's Appendix-A adjustments for `mods` to a copy of
/// `base`.
///
/// The adjustments only ever *raise* the affected parameters, and only
/// when the base value is the one being compensated (i.e. the base is
/// below the adjusted value) — so a caller who has already set, say,
/// `h_sw = 0.99` keeps their value.
pub fn paper_adjusted(base: &WorkloadParams, mods: ModSet) -> WorkloadParams {
    let mut p = *base;
    if mods.contains(Modification::ExclusiveLoad) {
        p.rep_p = p.rep_p.max(REP_P_MOD1);
    }
    let m2 = mods.contains(Modification::CacheSupply);
    let m3 = mods.contains(Modification::InvalidateOnWrite);
    if m2 && m3 {
        p.rep_sw = p.rep_sw.max(REP_SW_MOD2_AND_3);
    } else if m2 || m3 {
        p.rep_sw = p.rep_sw.max(REP_SW_MOD2_OR_3);
    }
    if mods.contains(Modification::ExclusiveLoad) && mods.contains(Modification::DistributedWrite)
    {
        p.h_sw = p.h_sw.max(H_SW_MOD1_AND_4);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{SharingLevel, WorkloadParams};

    fn base() -> WorkloadParams {
        WorkloadParams::appendix_a(SharingLevel::Five)
    }

    fn mods(numbers: &[u8]) -> ModSet {
        ModSet::from_numbers(numbers).unwrap()
    }

    #[test]
    fn write_once_is_unchanged() {
        assert_eq!(paper_adjusted(&base(), ModSet::new()), base());
    }

    #[test]
    fn mod1_raises_rep_p() {
        let p = paper_adjusted(&base(), mods(&[1]));
        assert_eq!(p.rep_p, 0.3);
        assert_eq!(p.rep_sw, 0.5);
        assert_eq!(p.h_sw, 0.5);
    }

    #[test]
    fn mod2_or_3_raise_rep_sw() {
        assert_eq!(paper_adjusted(&base(), mods(&[2])).rep_sw, 0.6);
        assert_eq!(paper_adjusted(&base(), mods(&[3])).rep_sw, 0.6);
        assert_eq!(paper_adjusted(&base(), mods(&[2, 3])).rep_sw, 0.7);
    }

    #[test]
    fn mod1_and_4_raise_h_sw() {
        let p = paper_adjusted(&base(), mods(&[1, 4]));
        assert_eq!(p.h_sw, 0.95);
        assert_eq!(p.rep_p, 0.3); // mod 1 is present too
        // mod 4 alone does not change h_sw (the paper ties the hit-rate jump
        // to the 1+4 combination it evaluates).
        assert_eq!(paper_adjusted(&base(), mods(&[4])).h_sw, 0.5);
    }

    #[test]
    fn all_mods_compose() {
        let p = paper_adjusted(&base(), ModSet::all());
        assert_eq!(p.rep_p, 0.3);
        assert_eq!(p.rep_sw, 0.7);
        assert_eq!(p.h_sw, 0.95);
    }

    #[test]
    fn user_overrides_are_preserved() {
        let custom = WorkloadParams { h_sw: 0.99, ..base() };
        let p = paper_adjusted(&custom, mods(&[1, 4]));
        assert_eq!(p.h_sw, 0.99);
    }

    #[test]
    fn adjusted_params_still_validate() {
        for set in ModSet::power_set() {
            paper_adjusted(&base(), set).validate().unwrap();
        }
    }
}
