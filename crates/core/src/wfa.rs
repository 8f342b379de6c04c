//! The Work Function Algorithm (WFA) for index tuning — Section 4.1,
//! Figure 3 of the paper.
//!
//! One [`WfaInstance`] tracks the work function over *all subsets* of a small
//! set of candidate indices (one part of the stable partition when used inside
//! WFA⁺/WFIT).  Configurations are bitmasks over the part's index list (the
//! [`crate::hypercube`] format), so a part of `k` indices stores `2^k`
//! work-function values.  Every `analyzeQuery` evaluates the recurrence
//!
//! ```text
//! w_n(S) = min_{X ⊆ C} { w_{n−1}(X) + cost(q_n, X) + δ(X, S) }
//! ```
//!
//! as one δ-transform of `f = w_{n−1} + cost(q_n, ·)`
//! ([`hypercube::min_plus_delta`], `O(k·2^k)` passes over the hypercube's
//! edges with the bits of the `O(4^k)` double loop over every `(X, S)`
//! pair, which the unit tests keep as the reference), followed by the
//! score minimization `currRec = argmin_{S ∈ p[S]} { w[S] + δ(S, currRec) }`.

use crate::hypercube;
use simdb::index::{IndexId, IndexSet};

/// Relative tolerance used when testing the `S ∈ p[S]` membership and score
/// ties (work-function values are sums of floating-point costs).
const EPS: f64 = 1e-9;

/// A single Work Function Algorithm instance over a fixed candidate set.
#[derive(Debug, Clone)]
pub struct WfaInstance {
    /// The candidate indices of this instance (the part `C_k`), in a fixed
    /// order defining the bitmask representation.
    indices: Vec<IndexId>,
    /// Per-index creation costs `δ⁺`.
    create: Vec<f64>,
    /// Per-index drop costs `δ⁻`.
    drop: Vec<f64>,
    /// Work function values, indexed by configuration bitmask.
    w: Vec<f64>,
    /// Bitmask of the current recommendation.
    curr_rec: usize,
}

impl WfaInstance {
    /// Create an instance for the candidate indices `indices`, with per-index
    /// creation/drop costs, starting from the initial configuration
    /// `initial ∩ indices`.
    ///
    /// The work function is initialized to `w_0(S) = δ(S_0, S)` as in the
    /// paper.
    pub fn new(
        indices: Vec<IndexId>,
        create: Vec<f64>,
        drop: Vec<f64>,
        initial: &IndexSet,
    ) -> Self {
        assert_eq!(indices.len(), create.len());
        assert_eq!(indices.len(), drop.len());
        assert!(
            indices.len() <= 20,
            "a WFA part of {} indices would need 2^{} states",
            indices.len(),
            indices.len()
        );
        let size = 1usize << indices.len();
        let initial_mask = hypercube::mask_of(&indices, initial);
        let mut instance = Self {
            indices,
            create,
            drop,
            w: vec![0.0; size],
            curr_rec: initial_mask,
        };
        for s in 0..size {
            instance.w[s] = instance.delta(initial_mask, s);
        }
        instance
    }

    /// Create an instance with explicit work-function values and current
    /// recommendation (used by WFIT's `repartition`, Figure 5).
    pub fn with_state(
        indices: Vec<IndexId>,
        create: Vec<f64>,
        drop: Vec<f64>,
        w: Vec<f64>,
        curr_rec: &IndexSet,
    ) -> Self {
        assert_eq!(w.len(), 1usize << indices.len());
        let curr = hypercube::mask_of(&indices, curr_rec);
        Self {
            indices,
            create,
            drop,
            w,
            curr_rec: curr,
        }
    }

    /// The candidate indices of this instance.
    pub fn indices(&self) -> &[IndexId] {
        &self.indices
    }

    /// Number of configurations tracked (`2^|C_k|`).
    pub fn state_count(&self) -> usize {
        self.w.len()
    }

    /// The current recommendation of this instance.
    pub fn recommend(&self) -> IndexSet {
        self.set_of(self.curr_rec)
    }

    /// Work function value of a configuration (restricted to this instance's
    /// indices).
    pub fn work_value(&self, config: &IndexSet) -> f64 {
        self.w[self.mask_of(config)]
    }

    /// Iterate over `(configuration, work value)` pairs.
    pub fn work_values(&self) -> impl Iterator<Item = (IndexSet, f64)> + '_ {
        (0..self.w.len()).map(|m| (self.set_of(m), self.w[m]))
    }

    /// Transition cost `δ(X, Y)` between two configuration bitmasks.
    pub fn delta(&self, from: usize, to: usize) -> f64 {
        hypercube::delta(&self.create, &self.drop, from, to)
    }

    /// Convert a bitmask into an [`IndexSet`].
    pub fn set_of(&self, mask: usize) -> IndexSet {
        hypercube::set_of(&self.indices, mask)
    }

    /// Convert an [`IndexSet`] into this instance's bitmask (indices outside
    /// the instance are ignored).
    pub fn mask_of(&self, set: &IndexSet) -> usize {
        hypercube::mask_of(&self.indices, set)
    }

    /// `WFA.analyzeQuery(q)` (Figure 3).
    ///
    /// `cost_of` must return `cost(q, X)` for `X` a subset of this instance's
    /// indices.
    pub fn analyze_query(&mut self, mut cost_of: impl FnMut(&IndexSet) -> f64) {
        let size = self.w.len();
        // Pre-compute per-configuration statement costs (one what-if / IBG
        // lookup per configuration).
        let costs: Vec<f64> = (0..size).map(|m| cost_of(&self.set_of(m))).collect();
        self.analyze_query_with_costs(&costs);
    }

    /// `analyzeQuery` when per-configuration costs are already available
    /// (`costs[mask] = cost(q, set_of(mask))`).
    pub fn analyze_query_with_costs(&mut self, costs: &[f64]) {
        assert_eq!(costs.len(), self.w.len());
        let (w_next, in_p) = self.next_work_function(costs);
        self.advance(w_next, &in_p);
    }

    /// Stage 1 of `analyzeQuery`: the next work function
    /// `w_n(S) = min_X w_{n−1}(X) + cost(q_n, X) + δ(X, S)` and, per `S`,
    /// whether `S ∈ p[S]` (the path that stays in `S` attains the minimum).
    ///
    /// One δ-transform of `f = w + cost`: the `O(4^k)` scan adds
    /// `(w[X] + cost[X]) + δ(X, S)` in that order, and
    /// [`hypercube::min_plus_delta`] returns that scan's least value bit for
    /// bit, so `w_n` and `p[S]` are exactly the scan's.
    fn next_work_function(&self, costs: &[f64]) -> (Vec<f64>, Vec<bool>) {
        let f: Vec<f64> = self.w.iter().zip(costs).map(|(&w, &c)| w + c).collect();
        let (w_next, _) = hypercube::min_plus_delta(&self.create, &self.drop, &f);
        let in_p = f
            .iter()
            .zip(&w_next)
            .map(|(&stay, &best)| stay <= best * (1.0 + EPS) + EPS)
            .collect();
        (w_next, in_p)
    }

    /// Stage 2 of `analyzeQuery`: adopt `w_next` and pick the next
    /// recommendation among the states with `S ∈ p[S]`, minimizing
    /// `score(S) = w[S] + δ(S, currRec)`.
    fn advance(&mut self, w_next: Vec<f64>, in_p: &[bool]) {
        let size = w_next.len();
        self.w = w_next;
        let mut best_state = self.curr_rec;
        let mut best_score = f64::INFINITY;
        let mut have = false;
        for s in (0..size).filter(|&s| in_p[s]) {
            let score = self.w[s] + self.delta(s, self.curr_rec);
            let tolerance = EPS * (1.0 + best_score.abs());
            let better = !have
                || score < best_score - tolerance
                || (score <= best_score + tolerance && lex_prefer(s, best_state));
            if better {
                best_score = score;
                best_state = s;
                have = true;
            }
        }
        debug_assert!(
            have,
            "Borodin & El-Yaniv Lemma 9.2: p[S] membership is always satisfiable"
        );
        self.curr_rec = best_state;
    }

    /// `WFIT.feedback` restricted to this instance (the per-part loop body of
    /// Figure 4): force the recommendation to be consistent with the votes and
    /// raise work-function values so that the internal state looks as if the
    /// workload itself had justified the change (equation 5.1).
    pub fn apply_feedback(&mut self, positive: &IndexSet, negative: &IndexSet) {
        let plus = self.mask_of(positive);
        let minus = self.mask_of(negative);
        // currRec ← currRec − F⁻ ∪ (F⁺ ∩ C_k)
        self.curr_rec = (self.curr_rec & !minus) | plus;
        let size = self.w.len();
        let w_curr = self.w[self.curr_rec];
        for s in 0..size {
            let s_cons = (s & !minus) | plus;
            let min_diff = self.delta(s, s_cons) + self.delta(s_cons, s);
            let diff = self.w[s] + self.delta(s, self.curr_rec) - w_curr;
            if diff < min_diff {
                self.w[s] += min_diff - diff;
            }
        }
    }

    /// The score of a configuration under the current internal state
    /// (`score(S) = w[S] + δ(S, currRec)`), exposed for tests and analysis.
    pub fn score(&self, config: &IndexSet) -> f64 {
        let m = self.mask_of(config);
        self.w[m] + self.delta(m, self.curr_rec)
    }
}

/// Lexicographic tie-break of the paper's Appendix B: among equal-score
/// configurations, prefer the one containing the lowest-numbered index at the
/// first position where they differ.
fn lex_prefer(a: usize, b: usize) -> bool {
    if a == b {
        return false;
    }
    let diff = a ^ b;
    let lowest = diff & diff.wrapping_neg();
    a & lowest != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{mock_statement, MockEnv, TuningEnv};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The paper's Figure 2 / Example 4.1 scenario: one index `a` with create
    /// cost 20 and drop cost 0; three queries with
    /// `cost(q1, ∅)=15, cost(q1, {a})=5`, `cost(q2, ∅)=15, cost(q2, {a})=2`,
    /// `cost(q3, ∅)=15, cost(q3, {a})=20`.
    fn example41() -> (MockEnv, Vec<simdb::query::Statement>, IndexId) {
        let env = MockEnv::new(20.0, 0.0);
        let a = IndexId(0);
        let q1 = mock_statement(1);
        let q2 = mock_statement(2);
        let q3 = mock_statement(3);
        env.set_cost(&q1, &IndexSet::empty(), 15.0);
        env.set_cost(&q1, &IndexSet::single(a), 5.0);
        env.set_cost(&q2, &IndexSet::empty(), 15.0);
        env.set_cost(&q2, &IndexSet::single(a), 2.0);
        env.set_cost(&q3, &IndexSet::empty(), 15.0);
        env.set_cost(&q3, &IndexSet::single(a), 20.0);
        (env, vec![q1, q2, q3], a)
    }

    fn wfa_for(env: &MockEnv, a: IndexId) -> WfaInstance {
        WfaInstance::new(
            vec![a],
            vec![env.create_cost(a)],
            vec![env.drop_cost(a)],
            &IndexSet::empty(),
        )
    }

    #[test]
    fn example_4_1_work_function_values() {
        let (env, qs, a) = example41();
        let mut wfa = wfa_for(&env, a);

        // w0
        assert_eq!(wfa.work_value(&IndexSet::empty()), 0.0);
        assert_eq!(wfa.work_value(&IndexSet::single(a)), 20.0);

        // After q1: w1(∅)=15, w1({a})=25; recommendation stays ∅.
        wfa.analyze_query(|cfg| env.cost(&qs[0], cfg));
        assert_eq!(wfa.work_value(&IndexSet::empty()), 15.0);
        assert_eq!(wfa.work_value(&IndexSet::single(a)), 25.0);
        assert_eq!(wfa.recommend(), IndexSet::empty());

        // After q2: w2(∅)=w2({a})=27; tie-breaker switches to {a}.
        wfa.analyze_query(|cfg| env.cost(&qs[1], cfg));
        assert_eq!(wfa.work_value(&IndexSet::empty()), 27.0);
        assert_eq!(wfa.work_value(&IndexSet::single(a)), 27.0);
        assert_eq!(wfa.recommend(), IndexSet::single(a));

        // After q3: w3(∅)=42, w3({a})=47; scores 62 vs 47 keep {a}.
        wfa.analyze_query(|cfg| env.cost(&qs[2], cfg));
        assert_eq!(wfa.work_value(&IndexSet::empty()), 42.0);
        assert_eq!(wfa.work_value(&IndexSet::single(a)), 47.0);
        assert!((wfa.score(&IndexSet::empty()) - 62.0).abs() < 1e-9);
        assert!((wfa.score(&IndexSet::single(a)) - 47.0).abs() < 1e-9);
        assert_eq!(wfa.recommend(), IndexSet::single(a));
    }

    #[test]
    fn work_function_is_monotone_in_statements() {
        // Lemma A.1: w_{i+1}(S) ≥ w_i(S) + min_X cost(q_{i+1}, X) ≥ w_i(S).
        let (env, qs, a) = example41();
        let mut wfa = wfa_for(&env, a);
        for q in &qs {
            let before: Vec<f64> = wfa.work_values().map(|(_, v)| v).collect();
            let min_cost = env
                .cost(q, &IndexSet::empty())
                .min(env.cost(q, &IndexSet::single(a)));
            wfa.analyze_query(|cfg| env.cost(q, cfg));
            let after: Vec<f64> = wfa.work_values().map(|(_, v)| v).collect();
            for (b, aft) in before.iter().zip(after.iter()) {
                assert!(aft + 1e-9 >= b + min_cost);
            }
        }
    }

    #[test]
    fn expensive_to_create_index_not_recommended_for_one_query() {
        let env = MockEnv::new(1_000.0, 0.0);
        let a = IndexId(0);
        let q = mock_statement(7);
        env.set_cost(&q, &IndexSet::empty(), 50.0);
        env.set_cost(&q, &IndexSet::single(a), 1.0);
        let mut wfa = wfa_for(&env, a);
        wfa.analyze_query(|cfg| env.cost(&q, cfg));
        assert_eq!(wfa.recommend(), IndexSet::empty());
        // But after enough repetitions the cumulative benefit justifies it.
        for _ in 0..30 {
            wfa.analyze_query(|cfg| env.cost(&q, cfg));
        }
        assert_eq!(wfa.recommend(), IndexSet::single(a));
    }

    #[test]
    fn recommendation_is_sticky_against_single_contrary_query() {
        // Hysteresis: after committing to {a}, one query that slightly favors
        // ∅ must not flip the recommendation (the benefit is smaller than the
        // cost of re-creating a).
        let (env, qs, a) = example41();
        let mut wfa = wfa_for(&env, a);
        for q in &qs[..2] {
            wfa.analyze_query(|cfg| env.cost(q, cfg));
        }
        assert_eq!(wfa.recommend(), IndexSet::single(a));
        wfa.analyze_query(|cfg| env.cost(&qs[2], cfg));
        assert_eq!(wfa.recommend(), IndexSet::single(a));
    }

    #[test]
    fn feedback_forces_consistency() {
        let (env, qs, a) = example41();
        let mut wfa = wfa_for(&env, a);
        wfa.analyze_query(|cfg| env.cost(&qs[0], cfg));
        assert_eq!(wfa.recommend(), IndexSet::empty());
        // Positive vote for a: recommendation must now contain a.
        wfa.apply_feedback(&IndexSet::single(a), &IndexSet::empty());
        assert_eq!(wfa.recommend(), IndexSet::single(a));
        // Negative vote for a: recommendation must drop a.
        wfa.apply_feedback(&IndexSet::empty(), &IndexSet::single(a));
        assert_eq!(wfa.recommend(), IndexSet::empty());
    }

    #[test]
    fn feedback_enforces_score_threshold() {
        // After feedback the score of every configuration S must exceed the
        // score of the new recommendation by at least
        // δ(S, S_cons) + δ(S_cons, S)  (equation 5.1).
        let (env, qs, a) = example41();
        let mut wfa = wfa_for(&env, a);
        wfa.analyze_query(|cfg| env.cost(&qs[0], cfg));
        wfa.apply_feedback(&IndexSet::single(a), &IndexSet::empty());
        let rec = wfa.recommend();
        let rec_score = wfa.score(&rec);
        for (cfg, _) in wfa.work_values().collect::<Vec<_>>() {
            let s_cons = cfg
                .difference(&IndexSet::empty())
                .union(&IndexSet::single(a));
            let m_s = wfa.mask_of(&cfg);
            let m_cons = wfa.mask_of(&s_cons);
            let min_diff = wfa.delta(m_s, m_cons) + wfa.delta(m_cons, m_s);
            assert!(
                wfa.score(&cfg) + 1e-9 >= rec_score + min_diff,
                "score bound violated for {cfg}"
            );
        }
    }

    #[test]
    fn feedback_can_be_overridden_by_workload() {
        // Recoverability: bad feedback (create a although the workload hates
        // it) is eventually overridden by subsequent statements.
        let env = MockEnv::new(20.0, 0.0);
        let a = IndexId(0);
        let bad_q = mock_statement(9);
        env.set_cost(&bad_q, &IndexSet::empty(), 1.0);
        env.set_cost(&bad_q, &IndexSet::single(a), 50.0); // e.g. updates
        let mut wfa = wfa_for(&env, a);
        wfa.apply_feedback(&IndexSet::single(a), &IndexSet::empty());
        assert_eq!(wfa.recommend(), IndexSet::single(a));
        for _ in 0..5 {
            wfa.analyze_query(|cfg| env.cost(&bad_q, cfg));
        }
        assert_eq!(wfa.recommend(), IndexSet::empty());
    }

    #[test]
    fn delta_is_asymmetric_and_zero_on_diagonal() {
        let env = MockEnv::new(100.0, 3.0);
        let a = IndexId(0);
        let b = IndexId(1);
        let wfa = WfaInstance::new(
            vec![a, b],
            vec![env.create_cost(a), env.create_cost(b)],
            vec![env.drop_cost(a), env.drop_cost(b)],
            &IndexSet::empty(),
        );
        assert_eq!(wfa.delta(0b00, 0b11), 200.0);
        assert_eq!(wfa.delta(0b11, 0b00), 6.0);
        assert_eq!(wfa.delta(0b01, 0b10), 103.0);
        assert_eq!(wfa.delta(0b10, 0b10), 0.0);
    }

    #[test]
    fn state_count_and_masks_roundtrip() {
        let ids = vec![IndexId(4), IndexId(7), IndexId(9)];
        let wfa = WfaInstance::new(
            ids.clone(),
            vec![1.0; 3],
            vec![1.0; 3],
            &IndexSet::single(IndexId(7)),
        );
        assert_eq!(wfa.state_count(), 8);
        assert_eq!(wfa.recommend(), IndexSet::single(IndexId(7)));
        for m in 0..8usize {
            assert_eq!(wfa.mask_of(&wfa.set_of(m)), m);
        }
        // Indices outside the part are ignored by mask_of.
        assert_eq!(wfa.mask_of(&IndexSet::single(IndexId(1000))), 0);
    }

    #[test]
    fn initial_work_function_is_transition_cost_from_s0() {
        let env = MockEnv::new(10.0, 2.0);
        let a = IndexId(0);
        let b = IndexId(1);
        let s0 = IndexSet::single(a);
        let wfa = WfaInstance::new(
            vec![a, b],
            vec![env.create_cost(a), env.create_cost(b)],
            vec![env.drop_cost(a), env.drop_cost(b)],
            &s0,
        );
        assert_eq!(wfa.work_value(&IndexSet::empty()), 2.0); // drop a
        assert_eq!(wfa.work_value(&IndexSet::single(a)), 0.0);
        assert_eq!(wfa.work_value(&IndexSet::single(b)), 12.0); // drop a, create b
        assert_eq!(wfa.work_value(&IndexSet::from_iter([a, b])), 10.0);
    }

    /// The `O(4^k)` recurrence [`WfaInstance::next_work_function`] must
    /// reproduce: for every `S`, fold `w[X] + cost[X] + δ(X, S)` over every
    /// `X`, and test `S ∈ p[S]` against that minimum.
    fn scan_next_work_function(wfa: &WfaInstance, costs: &[f64]) -> (Vec<f64>, Vec<bool>) {
        (0..wfa.w.len())
            .map(|s| {
                let best = wfa
                    .w
                    .iter()
                    .zip(costs)
                    .enumerate()
                    .map(|(x, (&w, &c))| w + c + wfa.delta(x, s))
                    .fold(f64::INFINITY, f64::min);
                let stay = wfa.w[s] + costs[s];
                (best, stay <= best * (1.0 + EPS) + EPS)
            })
            .unzip()
    }

    /// Values with exact ties and zeros whose sums round.
    const GRID: [f64; 9] = [0.0, 0.1, 0.2, 0.3, 0.7, 1.1, 2.5, 3.3, 10.1];

    /// How the transition and statement costs of one oracle case are drawn.
    #[derive(Debug, Clone, Copy)]
    enum Mix {
        /// Continuous transition and statement costs.
        Continuous,
        /// Transition and statement costs from [`GRID`].
        Grid,
        /// WFIT-shaped statement costs from [`GRID`] that ignore every index
        /// outside a random `used` mask (a per-case mask narrowed per
        /// statement): states that differ only in unused indexes tie in real
        /// arithmetic and round apart.
        Unused,
    }

    /// One statement's (or a `with_state` start's) per-configuration costs.
    fn draw_costs(rng: &mut StdRng, mix: Mix, size: usize, used: usize) -> Vec<f64> {
        let mut grid = || GRID[rng.gen_range(0..GRID.len())] * 100.0;
        match mix {
            Mix::Continuous => (0..size).map(|_| rng.gen_range(0.0..1000.0)).collect(),
            Mix::Grid => (0..size).map(|_| grid()).collect(),
            Mix::Unused => {
                let table: Vec<f64> = (0..size).map(|_| grid()).collect();
                (0..size).map(|x| table[x & used]).collect()
            }
        }
    }

    /// Replay random statements, with a vote before about one in four,
    /// against a kernel instance and a scan instance from the same start
    /// (`new` from a random initial set, or `with_state`), and assert after
    /// every statement that both computed bit-equal `w`, the same `p[S]`
    /// and the same recommendation.
    fn assert_matches_scan(k: usize, cases: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ids: Vec<IndexId> = (0..k as u32).map(IndexId).collect();
        let size = 1usize << k;
        for case in 0..cases {
            for mix in [Mix::Continuous, Mix::Grid, Mix::Unused] {
                let grid = |rng: &mut StdRng| GRID[rng.gen_range(0..GRID.len())];
                let (create, drop): (Vec<f64>, Vec<f64>) = (0..k)
                    .map(|_| match mix {
                        Mix::Continuous => (rng.gen_range(0.0..500.0), rng.gen_range(0.0..50.0)),
                        Mix::Grid | Mix::Unused => (grid(&mut rng) * 100.0, grid(&mut rng)),
                    })
                    .unzip();
                let used = rng.gen_range(0..size);
                let start = rng.gen_range(0..size);
                let mut fast = if rng.gen_bool(0.5) {
                    WfaInstance::new(ids.clone(), create, drop, &hypercube::set_of(&ids, start))
                } else {
                    let w = draw_costs(&mut rng, mix, size, used);
                    let rec = hypercube::set_of(&ids, start);
                    WfaInstance::with_state(ids.clone(), create, drop, w, &rec)
                };
                let mut slow = fast.clone();
                for n in 0..8 {
                    if rng.gen_bool(0.25) {
                        let plus = rng.gen_range(0..size) & rng.gen_range(0..size);
                        let minus = rng.gen_range(0..size) & rng.gen_range(0..size) & !plus;
                        let (plus, minus) = (fast.set_of(plus), fast.set_of(minus));
                        fast.apply_feedback(&plus, &minus);
                        slow.apply_feedback(&plus, &minus);
                    }
                    let narrowed = used & rng.gen_range(0..size);
                    let costs = draw_costs(&mut rng, mix, size, narrowed);
                    let (w_fast, p_fast) = fast.next_work_function(&costs);
                    let (w_slow, p_slow) = scan_next_work_function(&slow, &costs);
                    let case = format!("k {k}, {mix:?}, case {case}, statement {n}");
                    for s in 0..size {
                        assert_eq!(
                            (w_fast[s].to_bits(), p_fast[s]),
                            (w_slow[s].to_bits(), p_slow[s]),
                            "{case}, S {s}: kernel ({}, {}) vs scan ({}, {})",
                            w_fast[s],
                            p_fast[s],
                            w_slow[s],
                            p_slow[s]
                        );
                    }
                    fast.advance(w_fast, &p_fast);
                    slow.advance(w_slow, &p_slow);
                    assert_eq!(fast.recommend(), slow.recommend(), "{case}");
                }
            }
        }
    }

    #[test]
    fn work_function_update_matches_the_scan() {
        for k in 0..=8 {
            assert_matches_scan(k, (1024 >> k).max(4), k as u64);
        }
    }

    /// The `O(4^k)` scan is slow without optimization; CI runs this in
    /// release.
    #[test]
    #[ignore = "slow in debug: cargo test --release -p wfit_core --lib -- --ignored"]
    fn work_function_update_matches_the_scan_at_k_9_and_10() {
        for k in [9, 10] {
            assert_matches_scan(k, 4, k as u64);
        }
    }

    #[test]
    fn lexicographic_preference() {
        assert!(lex_prefer(0b01, 0b10));
        assert!(!lex_prefer(0b10, 0b01));
        assert!(lex_prefer(0b11, 0b10));
        assert!(!lex_prefer(0b0, 0b0));
    }
}
