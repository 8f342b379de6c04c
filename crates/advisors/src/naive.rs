//! Trivial baseline advisors used for sanity checks and ablation studies.

use simdb::index::{IndexId, IndexSet};
use simdb::query::Statement;
use wfit_core::advisor::IndexAdvisor;

/// Never recommends any index (the "do nothing" baseline).
#[derive(Debug, Default, Clone)]
pub struct NoIndexAdvisor;

impl IndexAdvisor for NoIndexAdvisor {
    fn analyze_query(&mut self, _stmt: &Statement) {}

    fn recommend(&self) -> IndexSet {
        IndexSet::empty()
    }

    fn name(&self) -> String {
        "NO-INDEX".to_string()
    }
}

/// Recommends every candidate index unconditionally from the first statement
/// on (the "index everything" baseline, useful to demonstrate the cost of
/// ignoring update maintenance and creation overheads).
#[derive(Debug, Clone)]
pub struct AllCandidatesAdvisor {
    candidates: IndexSet,
}

impl AllCandidatesAdvisor {
    /// Create the advisor over a fixed candidate set.
    pub fn new(candidates: Vec<IndexId>) -> Self {
        Self {
            candidates: IndexSet::from_iter(candidates),
        }
    }
}

impl IndexAdvisor for AllCandidatesAdvisor {
    fn analyze_query(&mut self, _stmt: &Statement) {}

    fn recommend(&self) -> IndexSet {
        self.candidates.clone()
    }

    fn name(&self) -> String {
        "ALL-CANDIDATES".to_string()
    }

    fn monitored_count(&self) -> usize {
        self.candidates.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfit_core::env::mock_statement;

    #[test]
    fn noop_never_recommends() {
        let mut adv = NoIndexAdvisor;
        adv.analyze_query(&mock_statement(1));
        assert!(adv.recommend().is_empty());
        assert_eq!(adv.name(), "NO-INDEX");
    }

    #[test]
    fn all_candidates_always_recommends_everything() {
        let mut adv = AllCandidatesAdvisor::new(vec![IndexId(1), IndexId(2)]);
        adv.analyze_query(&mock_statement(1));
        assert_eq!(adv.recommend().len(), 2);
        assert_eq!(adv.name(), "ALL-CANDIDATES");
    }
}
