//! Sliding benefit and interaction statistics.
//!
//! `chooseCands` keeps, for each candidate index `a`, the `histSize` most
//! recent entries `(n, β_n)` with `β_n > 0` (`idxStats`), and for each pair
//! `(a, b)` the most recent entries `(n, doi_n)` with `doi_n > 0`
//! (`intStats`).  From these it derives the *current benefit*
//!
//! ```text
//! benefit*_N(a) = max_{1≤ℓ≤L} (b_1 + … + b_ℓ) / (N − n_ℓ + 1)
//! ```
//!
//! (entries ordered most-recent first), "inspired by the LRU-K replacement
//! policy", and the analogous *current degree of interaction* `doi*_N(a, b)`.

use serde::{Deserialize, Serialize};
use simdb::index::IndexId;
use std::collections::HashMap;

/// A bounded window of `(position, value)` entries with the paper's
/// LRU-K-style "current value" aggregation.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SlidingStat {
    /// Entries ordered most-recent first: `(n_1, v_1), (n_2, v_2), …` with
    /// `n_1 > n_2 > …`.
    entries: Vec<(u64, f64)>,
    capacity: usize,
}

impl SlidingStat {
    /// Create a window retaining at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: Vec::new(),
            capacity: capacity.max(1),
        }
    }

    /// Record the value observed at workload position `n`.  Non-positive
    /// values are ignored (the paper only records entries with `β_n > 0`).
    pub fn record(&mut self, n: u64, value: f64) {
        if value <= 0.0 {
            return;
        }
        // Insert as most-recent; positions are expected to be non-decreasing.
        self.entries.insert(0, (n, value));
        if self.entries.len() > self.capacity {
            self.entries.truncate(self.capacity);
        }
    }

    /// The paper's "current value" after `now` observed statements.
    pub fn current(&self, now: u64) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        let mut best = 0.0f64;
        let mut sum = 0.0f64;
        for &(n, v) in &self.entries {
            sum += v;
            let window = (now.saturating_sub(n) + 1) as f64;
            best = best.max(sum / window);
        }
        best
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The most recent recorded entry, if any.
    pub fn last_entry(&self) -> Option<(u64, f64)> {
        self.entries.first().copied()
    }
}

/// `idxStats`: per-index benefit windows.
#[derive(Debug, Clone, Default)]
pub struct IndexStatistics {
    stats: HashMap<IndexId, SlidingStat>,
    hist_size: usize,
}

impl IndexStatistics {
    /// Create statistics with the given window size (`histSize`).
    pub fn new(hist_size: usize) -> Self {
        Self {
            stats: HashMap::new(),
            hist_size: hist_size.max(1),
        }
    }

    /// Record the maximum benefit `β_n` of index `a` at statement `n`.
    pub fn record(&mut self, a: IndexId, n: u64, beta: f64) {
        if beta <= 0.0 {
            return;
        }
        self.stats
            .entry(a)
            .or_insert_with(|| SlidingStat::new(self.hist_size))
            .record(n, beta);
    }

    /// `benefit*_N(a)`.
    pub fn current_benefit(&self, a: IndexId, now: u64) -> f64 {
        self.stats.get(&a).map(|s| s.current(now)).unwrap_or(0.0)
    }
}

/// `intStats`: per-pair interaction windows.
#[derive(Debug, Clone, Default)]
pub struct InteractionStats {
    stats: HashMap<(IndexId, IndexId), SlidingStat>,
    hist_size: usize,
}

impl InteractionStats {
    /// Create statistics with the given window size (`histSize`).
    pub fn new(hist_size: usize) -> Self {
        Self {
            stats: HashMap::new(),
            hist_size: hist_size.max(1),
        }
    }

    fn key(a: IndexId, b: IndexId) -> (IndexId, IndexId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Record `doi_n(a, b)` at statement `n`.
    pub fn record(&mut self, a: IndexId, b: IndexId, n: u64, doi: f64) {
        if doi <= 0.0 || a == b {
            return;
        }
        self.stats
            .entry(Self::key(a, b))
            .or_insert_with(|| SlidingStat::new(self.hist_size))
            .record(n, doi);
    }

    /// `doi*_N(a, b)`.
    pub fn current_doi(&self, a: IndexId, b: IndexId, now: u64) -> f64 {
        if a == b {
            return 0.0;
        }
        self.stats
            .get(&Self::key(a, b))
            .map(|s| s.current(now))
            .unwrap_or(0.0)
    }

    /// Total current interaction mass of `a` against a set of peers:
    /// `Σ_{b ∈ peers, b ≠ a} doi*_N(a, b)`.  Used as a context feature by the
    /// bandit arm: an index that interacts strongly with the deployed
    /// configuration is riskier to reason about independently.
    pub fn current_mass(&self, a: IndexId, peers: &simdb::index::IndexSet, now: u64) -> f64 {
        peers
            .iter()
            .filter(|&b| b != a)
            .map(|b| self.current_doi(a, b, now))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn current_value_matches_paper_formula() {
        // Entries at n=10 (value 4) and n=8 (value 2), now = 10:
        //   ℓ=1: 4 / (10-10+1) = 4
        //   ℓ=2: (4+2) / (10-8+1) = 2
        // max = 4.
        let mut s = SlidingStat::new(10);
        s.record(8, 2.0);
        s.record(10, 4.0);
        assert!((s.current(10) - 4.0).abs() < 1e-12);
        // Later, at now = 20, recency decays the value:
        //   ℓ=1: 4/11, ℓ=2: 6/13 → max = 6/13.
        assert!((s.current(20) - 6.0 / 13.0).abs() < 1e-12);
    }

    #[test]
    fn old_but_large_benefits_can_dominate() {
        let mut s = SlidingStat::new(10);
        s.record(1, 100.0);
        s.record(9, 0.5);
        // ℓ=1: 0.5/2 = 0.25; ℓ=2: 100.5/10 = 10.05.
        assert!((s.current(10) - 10.05).abs() < 1e-12);
    }

    #[test]
    fn capacity_expires_oldest_entries() {
        let mut s = SlidingStat::new(3);
        for n in 1..=5u64 {
            s.record(n, n as f64);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.last_entry(), Some((5, 5.0)));
        // Only entries 3, 4, 5 remain.
        let c = s.current(5);
        let expected: f64 = [5.0 / 1.0, 9.0 / 2.0, 12.0 / 3.0]
            .into_iter()
            .fold(0.0, f64::max);
        assert!((c - expected).abs() < 1e-12);
    }

    #[test]
    fn nonpositive_values_are_ignored() {
        let mut s = SlidingStat::new(3);
        s.record(1, 0.0);
        s.record(2, -5.0);
        assert!(s.is_empty());
        assert_eq!(s.current(5), 0.0);
    }

    #[test]
    fn index_statistics_track_per_index() {
        let mut stats = IndexStatistics::new(5);
        stats.record(IndexId(1), 3, 10.0);
        stats.record(IndexId(2), 3, -1.0);
        assert!(stats.current_benefit(IndexId(1), 3) > 0.0);
        assert_eq!(stats.current_benefit(IndexId(2), 3), 0.0);
        assert_eq!(stats.current_benefit(IndexId(9), 3), 0.0);
    }

    #[test]
    fn interaction_statistics_are_symmetric() {
        let mut stats = InteractionStats::new(5);
        stats.record(IndexId(2), IndexId(1), 4, 7.0);
        assert!(stats.current_doi(IndexId(1), IndexId(2), 4) > 0.0);
        assert!(stats.current_doi(IndexId(2), IndexId(1), 4) > 0.0);
        assert_eq!(stats.current_doi(IndexId(1), IndexId(1), 4), 0.0);
    }

    #[test]
    fn interaction_mass_sums_over_peers_and_skips_self() {
        use simdb::index::IndexSet;
        let mut stats = InteractionStats::new(5);
        stats.record(IndexId(1), IndexId(2), 4, 3.0);
        stats.record(IndexId(1), IndexId(3), 4, 5.0);
        let peers = IndexSet::from_iter([IndexId(1), IndexId(2), IndexId(3)]);
        let mass = stats.current_mass(IndexId(1), &peers, 4);
        assert!((mass - 8.0).abs() < 1e-12);
        // No recorded pairs → zero mass.
        assert_eq!(stats.current_mass(IndexId(9), &peers, 4), 0.0);
    }

    #[test]
    fn recent_benefit_gets_recency_advantage() {
        // Same values, different positions: the more recent one has a larger
        // current benefit at the same `now`.
        let mut old = SlidingStat::new(5);
        old.record(1, 10.0);
        let mut recent = SlidingStat::new(5);
        recent.record(9, 10.0);
        assert!(recent.current(10) > old.current(10));
    }
}
