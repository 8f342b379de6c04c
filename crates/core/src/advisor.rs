//! The common interface implemented by every index advisor in this
//! repository (WFIT, WFA⁺ with a fixed partition, WFIT-IND, the
//! Bruno–Chaudhuri baseline, and the offline OPT oracle wrapper).

use simdb::index::IndexSet;
use simdb::query::Statement;

/// An online (or replayed offline) index advisor.
///
/// The driver calls [`IndexAdvisor::analyze_query`] for every statement in
/// workload order, may call [`IndexAdvisor::feedback`] at any point between
/// statements, and reads the current recommendation with
/// [`IndexAdvisor::recommend`].
pub trait IndexAdvisor {
    /// Analyze the next workload statement.
    fn analyze_query(&mut self, stmt: &Statement);

    /// The advisor's current recommendation.
    fn recommend(&self) -> IndexSet;

    /// Deliver DBA feedback: positive votes for `positive`, negative votes for
    /// `negative`.  Advisors that do not support feedback (e.g. BC) ignore it.
    fn feedback(&mut self, positive: &IndexSet, negative: &IndexSet) {
        let _ = (positive, negative);
    }

    /// Short human-readable name used in experiment output.
    fn name(&self) -> String;

    /// Number of times a built-in safety gate rejected its own proposal and
    /// fell back to the current configuration.  Advisors without such a gate
    /// (everything except the bandit arm) report 0.
    fn safety_fallbacks(&self) -> u64 {
        0
    }

    /// What-if optimizer calls the advisor has issued (0 for advisors that
    /// never ask the optimizer).
    fn whatif_calls(&self) -> u64 {
        0
    }

    /// Number of times the stable partition was rebuilt (WFIT's automatic
    /// mode; 0 elsewhere).
    fn repartitions(&self) -> u64 {
        0
    }

    /// Configurations the work function tracks, `Σ_k 2^|C_k|` (WFIT only;
    /// 0 elsewhere).
    fn states_tracked(&self) -> u64 {
        0
    }

    /// Number of indices the advisor monitors: its candidate set.
    fn monitored_count(&self) -> usize {
        0
    }
}

/// Boxed advisors forward to their contents, so heterogeneous fleets (e.g.
/// the sessions of a tuning service) can be stored as
/// `Box<dyn IndexAdvisor + Send>`.
impl<A: IndexAdvisor + ?Sized> IndexAdvisor for Box<A> {
    fn analyze_query(&mut self, stmt: &Statement) {
        (**self).analyze_query(stmt)
    }

    fn recommend(&self) -> IndexSet {
        (**self).recommend()
    }

    fn feedback(&mut self, positive: &IndexSet, negative: &IndexSet) {
        (**self).feedback(positive, negative)
    }

    fn name(&self) -> String {
        (**self).name()
    }

    fn safety_fallbacks(&self) -> u64 {
        (**self).safety_fallbacks()
    }

    fn whatif_calls(&self) -> u64 {
        (**self).whatif_calls()
    }

    fn repartitions(&self) -> u64 {
        (**self).repartitions()
    }

    fn states_tracked(&self) -> u64 {
        (**self).states_tracked()
    }

    fn monitored_count(&self) -> usize {
        (**self).monitored_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(IndexSet);
    impl IndexAdvisor for Fixed {
        fn analyze_query(&mut self, _stmt: &Statement) {}
        fn recommend(&self) -> IndexSet {
            self.0.clone()
        }
        fn name(&self) -> String {
            "fixed".into()
        }
    }

    #[test]
    fn default_feedback_is_a_noop() {
        let mut a = Fixed(IndexSet::empty());
        a.feedback(&IndexSet::empty(), &IndexSet::empty());
        assert_eq!(a.recommend(), IndexSet::empty());
        assert_eq!(a.name(), "fixed");
    }
}
