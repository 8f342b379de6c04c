//! The [`TuningSession`]: the one loop that drives an advisor and adds up
//! `totWork`, for a long-lived tuning service and for the paper's offline
//! experiments alike.
//!
//! A service pushes one event at a time — [`TuningSession::submit_query`]
//! for a workload statement, [`TuningSession::vote`] for DBA feedback — and
//! reads the advisor's current recommendation back; an experiment hands the
//! session a whole known workload and a scheduled [`FeedbackStream`] through
//! [`TuningSession::replay`].  The session owns the full semi-automatic loop
//! state: the advisor, the configuration actually materialized so far, the
//! adoption policy, and the running `totWork` accounting (query cost +
//! transition cost, see [`crate::evaluator`]), so a service can host
//! thousands of such sessions without any replay-harness scaffolding.
//!
//! Sessions own their environment by value.  Pass `&db` for a short-lived
//! session that borrows a database, or an `Arc`-backed environment for a
//! `'static` session that can migrate across worker threads (the
//! multi-tenant service style).

use crate::advisor::IndexAdvisor;
use crate::env::TuningEnv;
use crate::evaluator::{AcceptancePolicy, FeedbackStream};
use simdb::index::IndexSet;
use simdb::query::Statement;

/// What happened in response to one submitted query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// 1-based position of the statement within this session.
    pub position: u64,
    /// Cost of the statement under the materialized configuration.
    pub query_cost: f64,
    /// Transition cost paid (0.0 unless a recommendation was adopted and it
    /// differed from the materialized configuration).
    pub transition_cost: f64,
    /// Whether the recommendation was (re-)adopted at this event.
    pub adopted: bool,
    /// Size of the materialized configuration after the event.
    pub configuration_size: usize,
}

/// Aggregate accounting of a session, mirroring the per-cell metrics of the
/// scenario harness so service runs and replay runs report uniformly.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SessionStats {
    /// Number of query events processed.
    pub queries: u64,
    /// Number of feedback (vote) events processed.
    pub votes: u64,
    /// Total work so far: `Σ cost(q, S) + δ(S, S')`.
    pub total_work: f64,
    /// Query-cost component of `total_work`.
    pub query_cost: f64,
    /// Transition-cost component of `total_work`.
    pub transition_cost: f64,
    /// Number of adoptions that actually changed the configuration.
    pub transitions: u64,
    /// Size of the currently materialized configuration.
    pub configuration_size: usize,
}

/// A long-lived, event-driven tuning session: one advisor, one materialized
/// configuration, one running total-work account.
///
/// The advisor is any [`IndexAdvisor`] — boxed trait objects work, which is
/// how a service stores heterogeneous fleets.
pub struct TuningSession<E: TuningEnv, A: IndexAdvisor> {
    env: E,
    advisor: A,
    materialized: IndexSet,
    policy: AcceptancePolicy,
    stats: SessionStats,
    /// Cumulative total work after each query event (the deterministic cost
    /// series used by regression tests and reports).
    cost_series: Vec<f64>,
}

impl<E: TuningEnv, A: IndexAdvisor> TuningSession<E, A> {
    /// Create a session over `env` driving `advisor`, starting from an empty
    /// materialized configuration and immediate adoption.
    pub fn new(env: E, advisor: A) -> Self {
        Self {
            env,
            advisor,
            materialized: IndexSet::empty(),
            policy: AcceptancePolicy::Immediate,
            stats: SessionStats::default(),
            cost_series: Vec::new(),
        }
    }

    /// Start from an already-materialized configuration `S0`.
    pub fn with_initial(mut self, initial: IndexSet) -> Self {
        self.stats.configuration_size = initial.len();
        self.materialized = initial;
        self
    }

    /// Set the adoption policy (immediate, or only every `T` statements —
    /// the `LAG T` DBA of the paper's Figure 11).  Every adoption under
    /// [`AcceptancePolicy::EveryT`] that changes the configuration also
    /// sends implicit feedback: the indices it creates are voted up and the
    /// ones it drops voted down, as a DBA renewing the advisor's lease.
    pub fn with_policy(mut self, policy: AcceptancePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Submit the next workload statement: the advisor analyzes it, the
    /// session adopts the recommendation if the policy says so (paying the
    /// transition cost), and the statement is charged under the materialized
    /// configuration.  A [`TuningSession::vote`] after this call first shows
    /// in the configuration the *next* statement is charged under.
    pub fn submit_query(&mut self, stmt: &Statement) -> QueryOutcome {
        self.step(stmt, None)
    }

    /// Replay a whole known workload, one [`QueryOutcome`] per statement.
    /// The votes `feedback` schedules at statement `n` arrive right after
    /// `q_n` is analyzed and before the recommendation is read, so they
    /// already shape the configuration `q_n` is charged under — the `S_n`
    /// of the paper's `totWork`.  Positions count the session's statements
    /// from 1, so a fresh session's positions are the workload's.
    pub fn replay(
        &mut self,
        workload: &[Statement],
        feedback: &FeedbackStream,
    ) -> Vec<QueryOutcome> {
        workload
            .iter()
            .map(|stmt| {
                let votes = feedback.at(self.stats.queries as usize + 1);
                self.step(stmt, votes)
            })
            .collect()
    }

    /// One turn of the loop: analyze, deliver the votes scheduled with the
    /// statement, adopt if the policy says so, charge the statement.
    fn step(&mut self, stmt: &Statement, votes: Option<&(IndexSet, IndexSet)>) -> QueryOutcome {
        self.stats.queries += 1;
        let position = self.stats.queries;
        self.advisor.analyze_query(stmt);
        if let Some((positive, negative)) = votes {
            self.vote(positive, negative);
        }

        let adopt = match self.policy {
            AcceptancePolicy::Immediate => true,
            AcceptancePolicy::EveryT(t) => t <= 1 || position.is_multiple_of(t as u64),
        };
        let mut transition = 0.0;
        if adopt {
            let recommendation = self.advisor.recommend();
            if recommendation != self.materialized {
                transition = self
                    .env
                    .transition_cost(&self.materialized, &recommendation);
                if matches!(self.policy, AcceptancePolicy::EveryT(_)) {
                    self.advisor.feedback(
                        &recommendation.difference(&self.materialized),
                        &self.materialized.difference(&recommendation),
                    );
                }
                self.materialized = recommendation;
                self.stats.transitions += 1;
            }
        }

        let query_cost = self.env.cost(stmt, &self.materialized);
        self.stats.query_cost += query_cost;
        self.stats.transition_cost += transition;
        self.stats.total_work += query_cost + transition;
        self.stats.configuration_size = self.materialized.len();
        self.cost_series.push(self.stats.total_work);
        QueryOutcome {
            position,
            query_cost,
            transition_cost: transition,
            adopted: adopt,
            configuration_size: self.materialized.len(),
        }
    }

    /// Deliver DBA feedback: positive votes for `positive`, negative votes
    /// for `negative`.
    pub fn vote(&mut self, positive: &IndexSet, negative: &IndexSet) {
        self.stats.votes += 1;
        self.advisor.feedback(positive, negative);
    }

    /// The advisor's current recommendation (independent of what is
    /// materialized).
    pub fn recommendation(&self) -> IndexSet {
        self.advisor.recommend()
    }

    /// The configuration currently materialized for this session.
    pub fn materialized(&self) -> &IndexSet {
        &self.materialized
    }

    /// Aggregate session accounting.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Cumulative total work after each query event.
    pub fn cost_series(&self) -> &[f64] {
        &self.cost_series
    }

    /// Access the advisor: its name and its overhead counters
    /// ([`IndexAdvisor::whatif_calls`], [`IndexAdvisor::states_tracked`], …).
    pub fn advisor(&self) -> &A {
        &self.advisor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{mock_statement, MockEnv};
    use crate::wfit::fixed_wfit;
    use simdb::index::IndexId;
    use std::sync::Arc;

    fn scripted() -> (Arc<MockEnv>, Statement, IndexId) {
        let env = MockEnv::new(30.0, 0.0);
        let a = IndexId(0);
        let q = mock_statement(1);
        env.set_cost(&q, &IndexSet::empty(), 50.0);
        env.set_cost(&q, &IndexSet::single(a), 5.0);
        (Arc::new(env), q, a)
    }

    /// Forwards to an inner advisor and logs every feedback call with the
    /// number of statements analyzed when it arrived.
    struct Recording<A> {
        inner: A,
        analyzed: usize,
        feedback: Vec<(usize, IndexSet, IndexSet)>,
    }

    impl<A: IndexAdvisor> IndexAdvisor for Recording<A> {
        fn analyze_query(&mut self, stmt: &Statement) {
            self.analyzed += 1;
            self.inner.analyze_query(stmt);
        }

        fn recommend(&self) -> IndexSet {
            self.inner.recommend()
        }

        fn feedback(&mut self, positive: &IndexSet, negative: &IndexSet) {
            self.feedback
                .push((self.analyzed, positive.clone(), negative.clone()));
            self.inner.feedback(positive, negative);
        }

        fn name(&self) -> String {
            self.inner.name()
        }
    }

    #[test]
    fn session_owns_arc_env_and_tracks_total_work() {
        let (env, q, a) = scripted();
        let advisor = fixed_wfit(env.clone(), vec![vec![a]]);
        let mut session = TuningSession::new(env, advisor);
        let mut outcomes = Vec::new();
        for _ in 0..20 {
            outcomes.push(session.submit_query(&q));
        }
        let stats = session.stats();
        assert_eq!(stats.queries, 20);
        // The index is created exactly once (create cost 30, then 5 per
        // query).
        assert_eq!(stats.transitions, 1);
        assert!((stats.transition_cost - 30.0).abs() < 1e-9);
        assert!(stats.total_work < 1000.0);
        assert!((stats.query_cost + stats.transition_cost - stats.total_work).abs() < 1e-9);
        assert_eq!(session.cost_series().len(), 20);
        assert!(session
            .cost_series()
            .windows(2)
            .all(|w| w[1] >= w[0] - 1e-12));
        assert_eq!(outcomes[0].position, 1);
        assert!(session.materialized().contains(a));
    }

    #[test]
    fn scheduled_votes_shape_their_statement_and_online_votes_the_next() {
        // Index `a` saves 5 per statement but costs 30 to create, so WFIT
        // does not build it within three statements on its own: only the
        // positive vote does.
        let env = MockEnv::new(30.0, 0.0);
        let a = IndexId(0);
        let q = mock_statement(1);
        env.set_cost(&q, &IndexSet::empty(), 50.0);
        env.set_cost(&q, &IndexSet::single(a), 45.0);
        let workload = vec![q.clone(); 3];

        // A vote scheduled at statement 2 is delivered after q2 is analyzed
        // and before adoption, so q2 is already charged under {a}.
        let mut stream = FeedbackStream::empty();
        stream.add(2, IndexSet::single(a), IndexSet::empty());
        let mut scheduled = TuningSession::new(&env, fixed_wfit(&env, vec![vec![a]]));
        let outcomes = scheduled.replay(&workload, &stream);
        let sizes: Vec<usize> = outcomes.iter().map(|o| o.configuration_size).collect();
        assert_eq!(sizes, [0, 1, 1]);
        assert_eq!(outcomes[1].transition_cost, 30.0);
        assert_eq!(outcomes[1].query_cost, 45.0);
        assert_eq!(scheduled.stats().votes, 1);

        // The same vote cast online after submit_query(q2) finds q2 already
        // charged: it first shows at q3.
        let mut online = TuningSession::new(&env, fixed_wfit(&env, vec![vec![a]]));
        let mut sizes = vec![
            online.submit_query(&q).configuration_size,
            online.submit_query(&q).configuration_size,
        ];
        online.vote(&IndexSet::single(a), &IndexSet::empty());
        let third = online.submit_query(&q);
        sizes.push(third.configuration_size);
        assert_eq!(sizes, [0, 0, 1]);
        assert_eq!(third.transition_cost, 30.0);
        // One statement later costs exactly q2's saving.
        let gap = online.stats().total_work - scheduled.stats().total_work;
        assert_eq!(gap, 5.0);
    }

    #[test]
    fn lagged_policy_adopts_only_at_lag_points() {
        let (env, q, a) = scripted();
        let recording = |env: Arc<MockEnv>| Recording {
            inner: fixed_wfit(env, vec![vec![a]]),
            analyzed: 0,
            feedback: Vec::new(),
        };
        let mut session = TuningSession::new(env.clone(), recording(env.clone()))
            .with_policy(AcceptancePolicy::EveryT(5));
        for i in 1..=10u64 {
            let outcome = session.submit_query(&q);
            assert_eq!(outcome.adopted, i % 5 == 0);
            if outcome.transition_cost > 0.0 {
                assert_eq!(i % 5, 0);
            }
        }
        assert_eq!(session.stats().transitions, 1);
        // The one adoption that created `a` voted it up, at a lag point;
        // implicit feedback is not a DBA vote event.
        let sent = &session.advisor().feedback;
        assert_eq!(sent.len(), 1);
        let (at, positive, negative) = &sent[0];
        assert_eq!(at % 5, 0);
        assert_eq!(
            (positive, negative),
            (&IndexSet::single(a), &IndexSet::empty())
        );
        assert_eq!(session.stats().votes, 0);

        // Immediate adoption sends no implicit feedback.
        let mut immediate = TuningSession::new(env.clone(), recording(env));
        immediate.replay(&vec![q; 10], &FeedbackStream::empty());
        assert_eq!(immediate.stats().transitions, 1);
        assert!(immediate.advisor().feedback.is_empty());
    }

    #[test]
    fn votes_are_delivered_and_counted() {
        let (env, q, a) = scripted();
        let advisor = fixed_wfit(env.clone(), vec![vec![a]]);
        let mut session = TuningSession::new(env, advisor);
        session.vote(&IndexSet::single(a), &IndexSet::empty());
        assert_eq!(session.stats().votes, 1);
        assert!(session.recommendation().contains(a));
        // The vote changes the recommendation but not the materialized set
        // until the next adoption point.
        assert!(session.materialized().is_empty());
        session.submit_query(&q);
        assert!(session.materialized().contains(a));
    }

    #[test]
    fn boxed_advisors_work_as_session_fleets() {
        let (env, q, a) = scripted();
        let advisor: Box<dyn IndexAdvisor + Send> =
            Box::new(fixed_wfit(env.clone(), vec![vec![a]]));
        let mut session = TuningSession::new(env, advisor).with_initial(IndexSet::single(a));
        assert_eq!(session.stats().configuration_size, 1);
        session.submit_query(&q);
        // The box forwards the name and every overhead counter.
        let advisor = session.advisor();
        assert_eq!(advisor.name(), "WFIT-fixed");
        assert!(advisor.recommend().contains(a));
        assert!(advisor.whatif_calls() > 0);
        assert_eq!(advisor.states_tracked(), 2);
        assert_eq!(advisor.monitored_count(), 1);
        assert_eq!(advisor.repartitions(), 0);
    }
}
