//! The `totWork` performance metric and the experiment driver.
//!
//! Following Section 3.1 of the paper,
//!
//! ```text
//! totWork(A, Q_N, V) = Σ_{1≤n≤N}  cost(q_n, S_n) + δ(S_{n−1}, S_n)
//! ```
//!
//! where `S_n` is the recommendation generated after analyzing `q_n` and all
//! feedback up to `q_{n+1}`, and `S_0` is the initial materialized set.  The
//! driver also models the *delayed acceptance* scenario of Figure 11, where
//! the DBA only adopts the current recommendation every `T` statements (and
//! the adopted — rather than the recommended — configuration is the one that
//! processes the statements in between).

use crate::advisor::IndexAdvisor;
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
    /// adopted configuration remains materialized.
    EveryT(usize),
}

/// Options controlling one evaluation run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Acceptance policy.
    pub acceptance: AcceptancePolicy,
    /// Scheduled explicit feedback.
    pub feedback: FeedbackStream,
    /// Initial materialized configuration `S_0`.
    pub initial: IndexSet,
    /// When `true`, adopting a recommendation also sends implicit feedback
    /// (positive votes for created indices, negative votes for dropped ones),
    /// mirroring the lease-renewal interpretation of delayed acceptance.
    pub implicit_feedback_on_accept: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            acceptance: AcceptancePolicy::Immediate,
            feedback: FeedbackStream::empty(),
            initial: IndexSet::empty(),
            implicit_feedback_on_accept: false,
        }
    }
}

/// Per-statement record of an evaluation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatementOutcome {
    /// 1-based statement position.
    pub position: usize,
    /// Cost of processing the statement under the adopted configuration.
    pub query_cost: f64,
    /// Transition cost paid before processing the statement.
    pub transition_cost: f64,
    /// Size of the adopted configuration.
    pub configuration_size: usize,
    /// Cumulative total work up to and including this statement.
    pub cumulative_total_work: f64,
}

/// Result of evaluating one advisor over one workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Label of the advisor.
    pub advisor: String,
    /// Total work over the whole workload.
    pub total_work: f64,
    /// Per-statement outcomes (cumulative curve used by the figures).
    pub outcomes: Vec<StatementOutcome>,
}

impl RunResult {
    /// Cumulative total work after `n` statements (1-based; `n = 0` gives 0).
    pub fn cumulative_at(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.outcomes[n.min(self.outcomes.len()) - 1].cumulative_total_work
        }
    }

    /// Number of statements evaluated.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether the run is empty.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }
}

/// The experiment driver: feeds a workload (and a feedback stream) to an
/// advisor and accounts for `totWork`.
pub struct Evaluator<E: TuningEnv> {
    env: E,
}

impl<E: TuningEnv> Evaluator<E> {
    /// Create an evaluator over the environment (taken by value: pass `&db`
    /// or any owned [`TuningEnv`] handle).
    pub fn new(env: E) -> Self {
        Self { env }
    }

    /// Run `advisor` over `workload` with the given options.
    pub fn run<A: IndexAdvisor>(
        &self,
        advisor: &mut A,
        workload: &[Statement],
        options: &RunOptions,
    ) -> RunResult {
        let mut materialized = options.initial.clone();
        let mut cumulative = 0.0;
        let mut outcomes = Vec::with_capacity(workload.len());

        for (i, stmt) in workload.iter().enumerate() {
            let position = i + 1;
            advisor.analyze_query(stmt);

            // Scheduled explicit feedback arrives right after the analysis of
            // this statement, before the recommendation is read.
            if let Some((pos, neg)) = options.feedback.at(position) {
                advisor.feedback(pos, neg);
            }

            // Does the DBA adopt the recommendation now?
            let adopt = match options.acceptance {
                AcceptancePolicy::Immediate => true,
                AcceptancePolicy::EveryT(t) => t <= 1 || position % t.max(1) == 0,
            };
            let mut transition = 0.0;
            if adopt {
                let recommendation = advisor.recommend();
                if recommendation != materialized {
                    transition = self.env.transition_cost(&materialized, &recommendation);
                    if options.implicit_feedback_on_accept {
                        let created = recommendation.difference(&materialized);
                        let dropped = materialized.difference(&recommendation);
                        if !created.is_empty() || !dropped.is_empty() {
                            advisor.feedback(&created, &dropped);
                        }
                    }
                    materialized = recommendation;
                }
            }

            let query_cost = self.env.cost(stmt, &materialized);
            cumulative += query_cost + transition;
            outcomes.push(StatementOutcome {
                position,
                query_cost,
                transition_cost: transition,
                configuration_size: materialized.len(),
                cumulative_total_work: cumulative,
            });
        }

        RunResult {
            advisor: advisor.name(),
            total_work: cumulative,
            outcomes,
        }
    }
}

/// Compute the total work of a *fixed, externally supplied* schedule of
/// configurations (used to score the OPT oracle's schedule and arbitrary
/// replay scenarios).
pub fn total_work_of_schedule<E: TuningEnv>(
    env: &E,
    workload: &[Statement],
    schedule: &[IndexSet],
    initial: &IndexSet,
) -> RunResult {
    assert_eq!(workload.len(), schedule.len());
    let mut cumulative = 0.0;
    let mut previous = initial.clone();
    let mut outcomes = Vec::with_capacity(workload.len());
    for (i, (stmt, config)) in workload.iter().zip(schedule.iter()).enumerate() {
        let transition = env.transition_cost(&previous, config);
        let query_cost = env.cost(stmt, config);
        cumulative += transition + query_cost;
        outcomes.push(StatementOutcome {
            position: i + 1,
            query_cost,
            transition_cost: transition,
            configuration_size: config.len(),
            cumulative_total_work: cumulative,
        });
        previous = config.clone();
    }
    RunResult {
        advisor: "schedule".to_string(),
        total_work: cumulative,
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{mock_statement, MockEnv};
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
        let mut advisor = fixed_wfit(&env, vec![vec![a]]);
        let evaluator = Evaluator::new(&env);
        let result = evaluator.run(&mut advisor, &workload, &RunOptions::default());
        assert_eq!(result.len(), 20);
        // The index is created exactly once.
        let total_transition: f64 = result.outcomes.iter().map(|o| o.transition_cost).sum();
        assert!((total_transition - 30.0).abs() < 1e-9);
        // Cumulative curve is non-decreasing and matches the final total.
        for w in result.outcomes.windows(2) {
            assert!(w[1].cumulative_total_work >= w[0].cumulative_total_work);
        }
        assert!((result.cumulative_at(20) - result.total_work).abs() < 1e-12);
        assert_eq!(result.cumulative_at(0), 0.0);
        // The advisor must beat the never-index strategy 20 × 50 = 1000.
        assert!(result.total_work < 1000.0);
    }

    #[test]
    fn lagged_acceptance_delays_materialization() {
        let (env, workload, a) = env_with_one_useful_index();
        let evaluator = Evaluator::new(&env);

        let mut immediate = fixed_wfit(&env, vec![vec![a]]);
        let fast = evaluator.run(&mut immediate, &workload, &RunOptions::default());

        let mut lagged = fixed_wfit(&env, vec![vec![a]]);
        let slow = evaluator.run(
            &mut lagged,
            &workload,
            &RunOptions {
                acceptance: AcceptancePolicy::EveryT(10),
                ..RunOptions::default()
            },
        );
        assert!(slow.total_work >= fast.total_work);
        // With lag 10 the configuration can only change at statements 10, 20.
        for o in &slow.outcomes {
            if o.transition_cost > 0.0 {
                assert_eq!(o.position % 10, 0);
            }
        }
    }

    #[test]
    fn feedback_stream_is_delivered_and_mirrored() {
        let (env, workload, a) = env_with_one_useful_index();
        let evaluator = Evaluator::new(&env);
        let mut stream = FeedbackStream::empty();
        stream.add(1, IndexSet::single(a), IndexSet::empty());
        assert_eq!(stream.len(), 1);
        assert!(!stream.is_empty());

        let mut advisor = fixed_wfit(&env, vec![vec![a]]);
        let with_good = evaluator.run(
            &mut advisor,
            &workload,
            &RunOptions {
                feedback: stream.clone(),
                ..RunOptions::default()
            },
        );
        // The positive vote after q1 makes the index available from q1 onward,
        // so total work is at least as good as without feedback.
        let mut baseline = fixed_wfit(&env, vec![vec![a]]);
        let none = evaluator.run(&mut baseline, &workload, &RunOptions::default());
        assert!(with_good.total_work <= none.total_work + 1e-9);

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
        let result = total_work_of_schedule(&env, &workload, &schedule, &IndexSet::empty());
        // 1 × 50 (first query) + 30 (create) + 19 × 5.
        assert!((result.total_work - (50.0 + 30.0 + 95.0)).abs() < 1e-9);
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
