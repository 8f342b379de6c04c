//! Configuration knobs of the WFIT algorithm.
//!
//! [`WfitConfig`] holds only the knobs that callers vary.  The
//! implementation limits no caller varies are constants next to the code
//! that reads them: [`crate::candidates::MAX_PART_SIZE`] bounds a part,
//! `candidates::PARTITION_SEED` seeds `choosePartition`'s randomized merges,
//! and `wfit::MAX_RELEVANT_PER_STATEMENT` caps the candidates of one
//! statement's index benefit graph.

use serde::{Deserialize, Serialize};

/// Tuning knobs exposed by `chooseCands` (Section 5.2.2) and the WFIT-IND
/// switch.
///
/// The defaults match the experimental setup of Section 6:
/// `idxCnt = 40`, `stateCnt = 500`, `histSize = 100`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WfitConfig {
    /// Upper bound on the number of indices monitored by WFA (`idxCnt`).
    pub idx_cnt: usize,
    /// Upper bound on the number of configurations tracked, `Σ_k 2^|C_k|`
    /// (`stateCnt`).
    pub state_cnt: u64,
    /// Number of past-statement entries kept in the benefit / interaction
    /// statistics (`histSize`).
    pub hist_size: usize,
    /// Number of randomized iterations performed by `choosePartition`
    /// (`RAND_CNT` in Figure 7).
    pub rand_cnt: usize,
    /// When `true`, all indices are assumed independent (every part is a
    /// singleton).  This is the paper's WFIT-IND variant, used in Figures 8
    /// and 10 to show the value of modeling index interactions.
    pub assume_independence: bool,
}

impl Default for WfitConfig {
    fn default() -> Self {
        Self {
            idx_cnt: 40,
            state_cnt: 500,
            hist_size: 100,
            rand_cnt: 8,
            assume_independence: false,
        }
    }
}

impl WfitConfig {
    /// Configuration matching the paper's defaults but with a custom
    /// `stateCnt` (the knob varied in Figure 8).
    pub fn with_state_cnt(state_cnt: u64) -> Self {
        Self {
            state_cnt,
            ..Self::default()
        }
    }

    /// The WFIT-IND variant: all indices assumed independent.
    pub fn independent() -> Self {
        Self {
            assume_independence: true,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_section_6() {
        let c = WfitConfig::default();
        assert_eq!(c.idx_cnt, 40);
        assert_eq!(c.state_cnt, 500);
        assert_eq!(c.hist_size, 100);
        assert!(!c.assume_independence);
    }

    #[test]
    fn constructors_set_expected_fields() {
        assert_eq!(WfitConfig::with_state_cnt(2000).state_cnt, 2000);
        assert!(WfitConfig::independent().assume_independence);
    }
}
