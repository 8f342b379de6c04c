//! The inputs and the reference scorer of the `totWork` performance metric.
//!
//! Following Section 3.1 of the paper,
//!
//! ```text
//! totWork(A, Q_N, V) = Σ_{1≤n≤N}  cost(q_n, S_n) + δ(S_{n−1}, S_n)
//! ```
//!
//! where `S_n` is the recommendation generated after analyzing `q_n` and all
//! feedback up to `q_{n+1}`, and `S_0` is the initial materialized set.
//! [`TuningSession`](crate::session::TuningSession) adds it up, online or
//! replaying a workload with a scheduled [`FeedbackStream`] `V`; an
//! [`AcceptancePolicy`] models the *delayed acceptance* scenario of
//! Figure 11, where the DBA only adopts the current recommendation every `T`
//! statements (and the adopted — rather than the recommended —
//! configuration is the one that processes the statements in between).
//! [`total_work_of_schedule`] scores a fixed, externally supplied schedule:
//! the OPT oracle's, and the independent reference the tests check the
//! session against.

use crate::env::TuningEnv;
use serde::{Deserialize, Serialize};
use simdb::index::IndexSet;
use simdb::query::Statement;
use std::collections::HashMap;

/// A scheduled feedback stream: votes `(F⁺, F⁻)` delivered right after the
/// statement at the given (1-based) position has been analyzed.
#[derive(Debug, Clone, Default)]
pub struct FeedbackStream {
    votes: HashMap<usize, (IndexSet, IndexSet)>,
}

impl FeedbackStream {
    /// An empty stream (`V = ∅`).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Add votes after statement `position` (1-based).  Multiple calls for the
    /// same position are merged.
    pub fn add(&mut self, position: usize, positive: IndexSet, negative: IndexSet) {
        let entry = self
            .votes
            .entry(position)
            .or_insert_with(|| (IndexSet::empty(), IndexSet::empty()));
        entry.0 = entry.0.union(&positive);
        entry.1 = entry.1.union(&negative);
    }

    /// Votes scheduled after statement `position`.
    pub fn at(&self, position: usize) -> Option<&(IndexSet, IndexSet)> {
        self.votes.get(&position)
    }

    /// Number of positions with votes.
    pub fn len(&self) -> usize {
        self.votes.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.votes.is_empty()
    }

    /// Swap positive and negative votes (turns `V_GOOD` into `V_BAD`).
    pub fn mirrored(&self) -> Self {
        Self {
            votes: self
                .votes
                .iter()
                .map(|(&k, (p, n))| (k, (n.clone(), p.clone())))
                .collect(),
        }
    }
}

/// How (and how often) the DBA adopts the advisor's recommendations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AcceptancePolicy {
    /// The recommendation is adopted after every statement (`S_n` is exactly
    /// the advisor's recommendation) — the convention used for the `totWork`
    /// analysis and for Figures 8–10 and 12.
    Immediate,
    /// The DBA requests and accepts the recommendation only every `T`
    /// statements (Figure 11's `LAG T` curves); in between, the previously
    /// adopted configuration remains materialized.  Each adoption votes the
    /// indices it creates up and the ones it drops down.
    EveryT(usize),
}

/// The cumulative total work of a *fixed, externally supplied* schedule of
/// configurations after each statement (`schedule[n]` processes
/// `workload[n]`; the last entry is `totWork`).  Scores the OPT oracle's
/// schedule and arbitrary replay scenarios.
pub fn total_work_of_schedule<E: TuningEnv>(
    env: &E,
    workload: &[Statement],
    schedule: &[IndexSet],
    initial: &IndexSet,
) -> Vec<f64> {
    assert_eq!(workload.len(), schedule.len());
    let mut cumulative = 0.0;
    let mut previous = initial;
    workload
        .iter()
        .zip(schedule)
        .map(|(stmt, config)| {
            cumulative += env.transition_cost(previous, config) + env.cost(stmt, config);
            previous = config;
            cumulative
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{mock_statement, MockEnv};
    use crate::session::TuningSession;
    use crate::wfit::fixed_wfit;
    use simdb::index::IndexId;

    fn env_with_one_useful_index() -> (MockEnv, Vec<Statement>, IndexId) {
        let env = MockEnv::new(30.0, 0.0);
        let a = IndexId(0);
        let q = mock_statement(1);
        env.set_cost(&q, &IndexSet::empty(), 50.0);
        env.set_cost(&q, &IndexSet::single(a), 5.0);
        (env, vec![q; 20], a)
    }

    #[test]
    fn total_work_accounts_for_transitions_and_queries() {
        let (env, workload, a) = env_with_one_useful_index();
        let mut session = TuningSession::new(&env, fixed_wfit(&env, vec![vec![a]]));
        let outcomes = session.replay(&workload, &FeedbackStream::empty());
        assert_eq!(outcomes.len(), 20);
        // The index is created exactly once.
        let total_transition: f64 = outcomes.iter().map(|o| o.transition_cost).sum();
        assert!((total_transition - 30.0).abs() < 1e-9);
        // Cumulative curve is non-decreasing and matches the final total.
        let series = session.cost_series();
        for w in series.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert_eq!(series.last(), Some(&session.stats().total_work));
        // The advisor must beat the never-index strategy 20 × 50 = 1000.
        assert!(session.stats().total_work < 1000.0);
    }

    #[test]
    fn lagged_acceptance_delays_materialization() {
        let (env, workload, a) = env_with_one_useful_index();
        let mut fast = TuningSession::new(&env, fixed_wfit(&env, vec![vec![a]]));
        fast.replay(&workload, &FeedbackStream::empty());

        let mut slow = TuningSession::new(&env, fixed_wfit(&env, vec![vec![a]]))
            .with_policy(AcceptancePolicy::EveryT(10));
        let outcomes = slow.replay(&workload, &FeedbackStream::empty());
        assert!(slow.stats().total_work >= fast.stats().total_work);
        // With lag 10 the configuration can only change at statements 10, 20.
        for o in &outcomes {
            if o.transition_cost > 0.0 {
                assert_eq!(o.position % 10, 0);
            }
        }
    }

    #[test]
    fn feedback_stream_is_delivered_and_mirrored() {
        let (env, workload, a) = env_with_one_useful_index();
        let mut stream = FeedbackStream::empty();
        stream.add(1, IndexSet::single(a), IndexSet::empty());
        assert_eq!(stream.len(), 1);
        assert!(!stream.is_empty());

        let mut with_good = TuningSession::new(&env, fixed_wfit(&env, vec![vec![a]]));
        with_good.replay(&workload, &stream);
        assert_eq!(with_good.stats().votes, 1);
        // The positive vote after q1 makes the index available from q1 onward,
        // so total work is at least as good as without feedback.
        let mut none = TuningSession::new(&env, fixed_wfit(&env, vec![vec![a]]));
        none.replay(&workload, &FeedbackStream::empty());
        assert!(with_good.stats().total_work <= none.stats().total_work + 1e-9);

        let mirrored = stream.mirrored();
        let (p, n) = mirrored.at(1).unwrap();
        assert!(p.is_empty());
        assert_eq!(*n, IndexSet::single(a));
    }

    #[test]
    fn schedule_total_work_matches_manual_computation() {
        let (env, workload, a) = env_with_one_useful_index();
        let schedule: Vec<IndexSet> = (0..workload.len())
            .map(|i| {
                if i >= 1 {
                    IndexSet::single(a)
                } else {
                    IndexSet::empty()
                }
            })
            .collect();
        let cumulative = total_work_of_schedule(&env, &workload, &schedule, &IndexSet::empty());
        assert_eq!(cumulative.len(), 20);
        // 1 × 50 (first query), then 30 (create) + 5.
        assert_eq!(cumulative[..2], [50.0, 85.0]);
        // 1 × 50 + 30 + 19 × 5.
        assert!((cumulative[19] - (50.0 + 30.0 + 95.0)).abs() < 1e-9);
    }

    #[test]
    fn feedback_positions_merge() {
        let mut stream = FeedbackStream::empty();
        stream.add(3, IndexSet::single(IndexId(1)), IndexSet::empty());
        stream.add(
            3,
            IndexSet::single(IndexId(2)),
            IndexSet::single(IndexId(9)),
        );
        let (p, n) = stream.at(3).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(n.len(), 1);
        assert!(stream.at(4).is_none());
    }
}
