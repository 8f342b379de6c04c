//! Feedback-semantics tests for WFIT (the Section 5 invariants) and for the
//! C²UCB bandit arm, which must honor the same semi-automatic contract.
//!
//! The semi-automatic contract: immediately after the DBA votes, every
//! positively voted index is part of `recommend()` and every negatively
//! voted index is not — even when the vote names an index the advisor is not
//! yet monitoring — and workload evidence can later override either vote.

use advisors::{BanditAdvisor, BanditConfig};
use wfit::core::env::{mock_statement, MockEnv};
use wfit::core::evaluator::FeedbackStream;
use wfit::core::TuningSession;
use wfit::{IndexAdvisor, IndexId, IndexSet, Wfit, WfitConfig};
use wfit_core::candidates::offline_selection;
use workload::{Benchmark, BenchmarkSpec};

/// A mock with one statement that index `a` helps — but by less than the
/// creation cost, so a single statement can never amortize the index on its
/// own and the DBA's vote is what makes the difference.
fn env_with_helpful_index() -> (MockEnv, wfit::simdb::query::Statement, IndexId) {
    let env = MockEnv::new(40.0, 1.0);
    let a = IndexId(0);
    let q = mock_statement(1);
    env.set_default_cost(&q, 100.0);
    env.set_cost(&q, &IndexSet::empty(), 100.0);
    env.set_cost(&q, &IndexSet::single(a), 80.0);
    env.set_candidates(&q, vec![a]);
    (env, q, a)
}

#[test]
fn positive_vote_is_recommended_immediately() {
    let (env, q, a) = env_with_helpful_index();
    let mut wfit = Wfit::new(&env, WfitConfig::default());
    wfit.analyze_query(&q);
    assert!(
        !wfit.recommend().contains(a),
        "one cheap statement must not amortize the creation cost yet"
    );
    wfit.feedback(&IndexSet::single(a), &IndexSet::empty());
    assert!(
        wfit.recommend().contains(a),
        "a positive vote must take effect before the next statement"
    );
}

#[test]
fn negative_vote_evicts_immediately() {
    let (env, q, a) = env_with_helpful_index();
    let mut wfit = Wfit::new(&env, WfitConfig::default());
    // Enough evidence that WFIT recommends the index on its own.
    for _ in 0..20 {
        wfit.analyze_query(&q);
    }
    assert!(wfit.recommend().contains(a));
    wfit.feedback(&IndexSet::empty(), &IndexSet::single(a));
    assert!(
        !wfit.recommend().contains(a),
        "a negative vote must evict the index before the next statement"
    );
}

#[test]
fn positive_vote_for_index_outside_candidate_pool_creates_a_part() {
    let (env, q, _a) = env_with_helpful_index();
    let outsider = IndexId(77);
    let mut wfit = Wfit::new(&env, WfitConfig::default());
    wfit.analyze_query(&q);
    let monitored_before = wfit.monitored();
    assert!(!monitored_before.contains(outsider));

    wfit.feedback(&IndexSet::single(outsider), &IndexSet::empty());
    assert!(
        wfit.recommend().contains(outsider),
        "votes for unmonitored indices must be honored (Figure 6's M ⊆ D)"
    );
    assert!(wfit.monitored().contains(outsider));
    // The vote also holds in fixed-partition mode (Figures 8–11 setup).
    let (env2, q2, a2) = env_with_helpful_index();
    let mut fixed = Wfit::with_fixed_partition(
        &env2,
        WfitConfig::default(),
        vec![vec![a2]],
        IndexSet::empty(),
    );
    fixed.analyze_query(&q2);
    fixed.feedback(&IndexSet::single(outsider), &IndexSet::empty());
    assert!(fixed.recommend().contains(outsider));
}

#[test]
fn negative_vote_for_unknown_index_is_harmless() {
    let (env, q, a) = env_with_helpful_index();
    let outsider = IndexId(99);
    let mut wfit = Wfit::new(&env, WfitConfig::default());
    wfit.analyze_query(&q);
    wfit.feedback(&IndexSet::empty(), &IndexSet::single(outsider));
    let rec = wfit.recommend();
    assert!(!rec.contains(outsider));
    // The rest of the state is unaffected: the useful index can still be
    // voted in.
    wfit.feedback(&IndexSet::single(a), &IndexSet::empty());
    assert!(wfit.recommend().contains(a));
}

#[test]
fn workload_evidence_overrides_votes_over_time() {
    let (env, q, a) = env_with_helpful_index();
    // An update statement that makes every index a liability.
    let upd = mock_statement(2);
    env.set_default_cost(&upd, 10.0);
    env.set_cost(&upd, &IndexSet::empty(), 10.0);
    env.set_cost(&upd, &IndexSet::single(a), 80.0);
    env.set_candidates(&upd, vec![]);

    let mut wfit = Wfit::new(&env, WfitConfig::default());
    wfit.analyze_query(&q);
    wfit.feedback(&IndexSet::single(a), &IndexSet::empty());
    assert!(wfit.recommend().contains(a));
    for _ in 0..30 {
        wfit.analyze_query(&upd);
    }
    assert!(
        !wfit.recommend().contains(a),
        "sustained update pressure must eventually override the positive vote"
    );
}

#[test]
fn alternating_votes_stay_consistent() {
    let (env, q, a) = env_with_helpful_index();
    let b = IndexId(5);
    let mut wfit = Wfit::new(&env, WfitConfig::default());
    for round in 0..4 {
        wfit.analyze_query(&q);
        let (pos, neg) = if round % 2 == 0 { (a, b) } else { (b, a) };
        wfit.feedback(&IndexSet::single(pos), &IndexSet::single(neg));
        let rec = wfit.recommend();
        assert!(rec.contains(pos), "round {round}: {rec} misses {pos}");
        assert!(!rec.contains(neg), "round {round}: {rec} contains {neg}");
    }
}

#[test]
fn votes_on_the_real_benchmark_take_effect_immediately() {
    let bench = Benchmark::generate(BenchmarkSpec::small(3));
    let selection = offline_selection(&bench.db, &bench.statements, &WfitConfig::default());
    let top = selection.candidates[0];

    let mut wfit = Wfit::with_fixed_partition(
        &bench.db,
        WfitConfig::default(),
        selection.partition.clone(),
        IndexSet::empty(),
    );
    wfit.analyze_query(&bench.statements[0]);
    wfit.feedback(&IndexSet::single(top), &IndexSet::empty());
    assert!(wfit.recommend().contains(top));
    wfit.feedback(&IndexSet::empty(), &IndexSet::single(top));
    assert!(!wfit.recommend().contains(top));
}

#[test]
fn scheduled_feedback_is_delivered_at_the_voted_statement() {
    // End-to-end through a session replay: a positive vote scheduled after
    // statement 2 shows up in the adopted configuration at statement 2, not
    // before.
    let (env, q, a) = env_with_helpful_index();
    let workload = vec![q; 6];
    let mut stream = FeedbackStream::empty();
    stream.add(2, IndexSet::single(a), IndexSet::empty());

    let wfit = Wfit::new(&env, WfitConfig::default());
    let outcomes = TuningSession::new(&env, wfit).replay(&workload, &stream);
    assert_eq!(outcomes[0].configuration_size, 0);
    assert_eq!(outcomes[1].configuration_size, 1);
    assert!(outcomes[1].transition_cost > 0.0);
}

// ---------------------------------------------------------------------------
// The same Section 5 contract, replayed against the C²UCB bandit arm: a DBA
// vote must pin (or ban) the arm with exactly the WFIT vote semantics.
// ---------------------------------------------------------------------------

#[test]
fn bandit_positive_vote_is_recommended_immediately() {
    let (env, q, a) = env_with_helpful_index();
    let mut bandit = BanditAdvisor::new(&env, vec![a], BanditConfig::default());
    assert!(!bandit.recommend().contains(a));
    bandit.feedback(&IndexSet::single(a), &IndexSet::empty());
    assert!(
        bandit.recommend().contains(a),
        "a positive vote must take effect before the next statement"
    );
    // The pin also survives the next analysis round (it bypasses the score
    // threshold and the safety gate cannot drop a pinned arm).
    bandit.analyze_query(&q);
    assert!(bandit.recommend().contains(a));
}

#[test]
fn bandit_negative_vote_evicts_immediately() {
    let (env, q, a) = env_with_helpful_index();
    let mut bandit = BanditAdvisor::new(&env, vec![a], BanditConfig::default());
    // Enough evidence that the bandit deploys the index on its own.
    for _ in 0..10 {
        bandit.analyze_query(&q);
    }
    assert!(
        bandit.recommend().contains(a),
        "the UCB model must deploy the beneficial index unaided"
    );
    bandit.feedback(&IndexSet::empty(), &IndexSet::single(a));
    assert!(
        !bandit.recommend().contains(a),
        "a negative vote must evict the arm before the next statement"
    );
}

#[test]
fn bandit_positive_vote_for_index_outside_arm_pool_creates_an_arm() {
    let (env, q, _a) = env_with_helpful_index();
    let outsider = IndexId(77);
    let mut bandit = BanditAdvisor::new(&env, vec![_a], BanditConfig::default());
    bandit.analyze_query(&q);
    assert!(!bandit.candidates().contains(&outsider));

    bandit.feedback(&IndexSet::single(outsider), &IndexSet::empty());
    assert!(
        bandit.recommend().contains(outsider),
        "votes for unmonitored indices must be honored (M ⊆ D, like WFIT)"
    );
    assert!(
        bandit.candidates().contains(&outsider),
        "the voted outsider must join the arm pool"
    );
}

#[test]
fn bandit_negative_vote_for_unknown_index_is_harmless() {
    let (env, q, a) = env_with_helpful_index();
    let outsider = IndexId(99);
    let mut bandit = BanditAdvisor::new(&env, vec![a], BanditConfig::default());
    bandit.analyze_query(&q);
    bandit.feedback(&IndexSet::empty(), &IndexSet::single(outsider));
    assert!(!bandit.recommend().contains(outsider));
    // The rest of the state is unaffected: the useful index can still be
    // voted in.
    bandit.feedback(&IndexSet::single(a), &IndexSet::empty());
    assert!(bandit.recommend().contains(a));
}

#[test]
fn bandit_workload_evidence_overrides_votes_over_time() {
    let (env, q, a) = env_with_helpful_index();
    // An update statement that makes the index a liability.
    let upd = mock_statement(2);
    env.set_default_cost(&upd, 10.0);
    env.set_cost(&upd, &IndexSet::empty(), 10.0);
    env.set_cost(&upd, &IndexSet::single(a), 80.0);
    env.set_candidates(&upd, vec![]);

    let mut bandit = BanditAdvisor::new(&env, vec![a], BanditConfig::default());
    bandit.analyze_query(&q);
    bandit.feedback(&IndexSet::single(a), &IndexSet::empty());
    assert!(bandit.recommend().contains(a));
    for _ in 0..30 {
        bandit.analyze_query(&upd);
    }
    assert!(
        !bandit.recommend().contains(a),
        "sustained update pressure must erode the pin and drop the arm"
    );
}

#[test]
fn bandit_alternating_votes_stay_consistent() {
    let (env, q, a) = env_with_helpful_index();
    let b = IndexId(5);
    let mut bandit = BanditAdvisor::new(&env, vec![a], BanditConfig::default());
    for round in 0..4 {
        bandit.analyze_query(&q);
        let (pos, neg) = if round % 2 == 0 { (a, b) } else { (b, a) };
        bandit.feedback(&IndexSet::single(pos), &IndexSet::single(neg));
        let rec = bandit.recommend();
        assert!(rec.contains(pos), "round {round}: {rec} misses {pos}");
        assert!(!rec.contains(neg), "round {round}: {rec} contains {neg}");
    }
}

#[test]
fn bandit_votes_on_the_real_benchmark_take_effect_immediately() {
    let bench = Benchmark::generate(BenchmarkSpec::small(3));
    let selection = offline_selection(&bench.db, &bench.statements, &WfitConfig::default());
    let top = selection.candidates[0];

    let mut bandit = BanditAdvisor::new(
        &bench.db,
        selection.candidates.clone(),
        BanditConfig::default(),
    );
    bandit.analyze_query(&bench.statements[0]);
    bandit.feedback(&IndexSet::single(top), &IndexSet::empty());
    assert!(bandit.recommend().contains(top));
    bandit.feedback(&IndexSet::empty(), &IndexSet::single(top));
    assert!(!bandit.recommend().contains(top));
}

#[test]
fn bandit_scheduled_feedback_is_delivered_at_the_voted_statement() {
    // End-to-end through a session replay: the bandit deploys the helpful
    // index by itself, and a negative vote scheduled after statement 2
    // evicts it at statement 2 — not before.
    let (env, q, a) = env_with_helpful_index();
    let workload = vec![q; 4];
    let mut stream = FeedbackStream::empty();
    stream.add(2, IndexSet::empty(), IndexSet::single(a));

    let bandit = BanditAdvisor::new(&env, vec![a], BanditConfig::default());
    let outcomes = TuningSession::new(&env, bandit).replay(&workload, &stream);
    assert_eq!(
        outcomes[0].configuration_size, 1,
        "the exploration bonus deploys the index on the first statement"
    );
    assert_eq!(
        outcomes[1].configuration_size, 0,
        "the scheduled ban must be delivered at the voted statement"
    );
}
