//! A C²UCB-style contextual combinatorial bandit index advisor.
//!
//! Follows the architecture of "DBA bandits" / "No DBA? No regret!"
//! (Perera et al., see PAPERS.md): index tuning as a combinatorial
//! semi-bandit where each candidate index is an **arm**, a shared linear
//! model maps per-arm context features to expected per-statement benefit,
//! and an upper-confidence bound drives exploration.  The adaptation to this
//! repository keeps the paper's three load-bearing ideas and drops the rest:
//!
//! 1. **Contextual ridge regression (C²UCB).**  One shared model
//!    `θ = A⁻¹ b` over a small feature vector per arm, with
//!    `A ← A + Σ x xᵀ` and `b ← b + Σ r x` updated only for the arms that
//!    were actually played (semi-bandit feedback).  The UCB score of arm `i`
//!    is `θᵀxᵢ + α·√(xᵢᵀ A⁻¹ xᵢ)`.
//! 2. **Safety gate.**  The combined proposal is adopted only when its
//!    model-estimated cost (IBG cost of the proposal plus the amortized
//!    transition cost) does not exceed the estimated cost of keeping the
//!    current configuration — otherwise the advisor *falls back* to the
//!    current configuration and counts a [`BanditAdvisor::safety_fallbacks`]
//!    event.  This is the "safety guarantee" of both bandit papers.
//! 3. **Determinism.**  No wall clock and no hidden RNG state: scores are a
//!    pure function of (statement history, votes, seed).  Ties between
//!    equal-scoring arms are broken by a splitmix64 hash of
//!    `(seed, statement number, arm id)`, so replays are bit-identical.
//!
//! Context features come from the same IBG machinery the other advisors use
//! (`crates/ibg`): the in-context marginal benefit of the arm for the
//! current statement, the LRU-K-style sliding *current benefit* of
//! `idxStats`, and the interaction mass of the arm against the deployed
//! configuration from `intStats`.  All what-if exploration is charged
//! through [`TuningEnv::ibg`] exactly like WFIT and BC, so `whatif_calls`
//! are comparable cell-for-cell and the shared service cache benefits the
//! bandit the same way.
//!
//! The model's settings are constants: the exploration width `ALPHA`, the
//! ridge regularizer `RIDGE`, the feature window `HIST_SIZE`, the deployment
//! cap `MAX_CONFIG_SIZE` and the amortization `HORIZON`.  [`BanditConfig`]
//! carries only the tie-break seed.
//!
//! DBA votes use the ski-rental semantics of the WFIT feedback loop: a
//! positive vote **pins** an arm (it is recommended immediately and added to
//! the pool if it was outside it), a negative vote **bans** it (it is
//! evicted immediately).  Pin/ban strength starts at the index creation cost
//! and erodes under contrary workload evidence, so persistent evidence
//! eventually overrides a stale vote — mirroring `WorkFunctionPart`'s vote
//! handling.

use ibg::benefit::marginal_benefit;
use ibg::doi::degree_of_interaction;
use ibg::stats::{IndexStatistics, InteractionStats};
use simdb::index::{IndexId, IndexSet};
use simdb::query::Statement;
use std::collections::HashMap;
use wfit_core::advisor::IndexAdvisor;
use wfit_core::env::TuningEnv;

/// Dimension of the per-arm context feature vector:
/// `[bias, statement marginal benefit, sliding current benefit, interaction mass]`.
const DIM: usize = 4;

/// UCB exploration width `α` (larger explores more aggressively).
const ALPHA: f64 = 0.6;

/// Ridge regularizer `λ`: the model starts from `A = λI`.
const RIDGE: f64 = 1.0;

/// Sliding-window size for the `idxStats` / `intStats` features (the
/// paper's `histSize`).
const HIST_SIZE: usize = 100;

/// Maximum number of indexes the bandit deploys at once.
const MAX_CONFIG_SIZE: usize = 8;

/// Horizon (in statements) over which the safety gate and the creation-cost
/// penalty amortize transition costs.
const HORIZON: f64 = 16.0;

/// The bandit arm's one per-cell setting: the seed of its splitmix64
/// tie-break hash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BanditConfig {
    /// Seed for the splitmix64 tie-break hash.
    pub seed: u64,
}

impl Default for BanditConfig {
    fn default() -> Self {
        Self::with_seed(0xC2CB)
    }
}

impl BanditConfig {
    /// The configuration with a specific tie-break seed.
    pub fn with_seed(seed: u64) -> Self {
        Self { seed }
    }
}

/// The safety-gate decision taken for one analyzed statement, exposed for
/// the property-test battery.
#[derive(Debug, Clone, PartialEq)]
pub struct GateDecision {
    /// The configuration the UCB selection proposed.
    pub proposed: IndexSet,
    /// Whether the proposal was adopted (`false` means the gate fell back to
    /// the previous configuration).
    pub adopted: bool,
    /// Model-estimated cost of the proposal (IBG statement cost plus
    /// amortized transition cost).
    pub est_proposed: f64,
    /// Model-estimated cost of staying put.
    pub est_stay: f64,
}

/// A vote pin or ban with its remaining ski-rental strength.
#[derive(Debug, Clone, Copy)]
struct Vote {
    strength: f64,
}

/// The C²UCB bandit advisor over a fixed candidate pool.
pub struct BanditAdvisor<E: TuningEnv> {
    env: E,
    /// Arms in sorted id order (determinism: never iterate a map).
    arms: Vec<IndexId>,
    /// The current recommendation.
    current: IndexSet,
    /// Ridge model: `A` (DIM×DIM) and `b` (DIM).
    a_matrix: [[f64; DIM]; DIM],
    b_vec: [f64; DIM],
    /// Sliding per-arm benefit windows (`idxStats`).
    idx_stats: IndexStatistics,
    /// Sliding pairwise interaction windows (`intStats`).
    int_stats: InteractionStats,
    /// Pinned arms (positive votes) with remaining strength.
    pinned: HashMap<IndexId, Vote>,
    /// Banned arms (negative votes) with remaining strength.
    banned: HashMap<IndexId, Vote>,
    last_gate: Option<GateDecision>,
    statements: u64,
    whatif_calls: u64,
    safety_fallbacks: u64,
    seed: u64,
}

impl<E: TuningEnv> BanditAdvisor<E> {
    /// Create the advisor over a fixed candidate pool, starting from an
    /// empty configuration.
    pub fn new(env: E, candidates: Vec<IndexId>, config: BanditConfig) -> Self {
        let mut arms = candidates;
        arms.sort_unstable();
        arms.dedup();
        let mut a_matrix = [[0.0; DIM]; DIM];
        for (i, row) in a_matrix.iter_mut().enumerate() {
            row[i] = RIDGE;
        }
        Self {
            env,
            arms,
            current: IndexSet::empty(),
            a_matrix,
            b_vec: [0.0; DIM],
            idx_stats: IndexStatistics::new(HIST_SIZE),
            int_stats: InteractionStats::new(HIST_SIZE),
            pinned: HashMap::new(),
            banned: HashMap::new(),
            last_gate: None,
            statements: 0,
            whatif_calls: 0,
            safety_fallbacks: 0,
            seed: config.seed,
        }
    }

    /// Number of statements analyzed.
    pub fn statements_analyzed(&self) -> u64 {
        self.statements
    }

    /// The arm pool (candidates plus any pinned outsiders), sorted by id.
    pub fn candidates(&self) -> &[IndexId] {
        &self.arms
    }

    /// The safety-gate decision of the most recently analyzed statement,
    /// if the UCB proposal differed from the current configuration.
    pub fn last_gate(&self) -> Option<&GateDecision> {
        self.last_gate.as_ref()
    }

    /// Per-arm UCB scores for the most recent model state, evaluated against
    /// a fresh IBG of `stmt`.  Pure function of (history, seed) — used by the
    /// replay-equality property tests.  Does **not** mutate the model or
    /// charge the IBG build's what-if calls to this advisor.
    pub fn arm_scores(&self, stmt: &Statement) -> Vec<(IndexId, f64)> {
        let all = IndexSet::from_iter(self.arms.iter().copied());
        let ibg = self.env.ibg(stmt, all).graph;
        let a_inv = invert(&self.a_matrix);
        let theta = mat_vec(&a_inv, &self.b_vec);
        let scale = ibg.cost(&IndexSet::empty()) + 1.0;
        self.arms
            .iter()
            .map(|&id| {
                let x = self.features(&ibg, id, scale);
                (
                    id,
                    self.ucb(&theta, &a_inv, &x) - self.creation_penalty(id, scale),
                )
            })
            .collect()
    }

    /// The context feature vector of arm `id` for the statement summarized
    /// by `ibg`, with benefits normalized by `scale` (the statement's
    /// empty-configuration cost).
    fn features(&self, ibg: &ibg::IndexBenefitGraph, id: IndexId, scale: f64) -> [f64; DIM] {
        let stmt_benefit = marginal_benefit(ibg, id, &self.current) / scale;
        let sliding =
            self.idx_stats.current_benefit(id, self.statements) / (self.env.create_cost(id) + 1.0);
        let interaction = self
            .int_stats
            .current_mass(id, &self.current, self.statements)
            / scale;
        [1.0, stmt_benefit, sliding, interaction]
    }

    /// `θᵀx + α·√(xᵀ A⁻¹ x)`.
    fn ucb(&self, theta: &[f64; DIM], a_inv: &[[f64; DIM]; DIM], x: &[f64; DIM]) -> f64 {
        let mean: f64 = (0..DIM).map(|i| theta[i] * x[i]).sum();
        let var = quad_form(a_inv, x).max(0.0);
        mean + ALPHA * var.sqrt()
    }

    /// Amortized creation-cost penalty for arms not currently deployed.
    fn creation_penalty(&self, id: IndexId, scale: f64) -> f64 {
        if self.current.contains(id) {
            0.0
        } else {
            self.env.create_cost(id) / (HORIZON * scale)
        }
    }

    /// Deterministic tie-break hash for equal-scoring arms.
    fn tiebreak(&self, id: IndexId) -> u64 {
        splitmix64(
            self.seed
                .wrapping_add(self.statements)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ id.0 as u64,
        )
    }

    /// Erode pin/ban strengths with contrary in-context evidence; votes whose
    /// strength is exhausted are forgotten (workload overrides the DBA).
    fn erode_votes(&mut self, benefits: &HashMap<IndexId, f64>) {
        self.pinned.retain(|id, vote| {
            let b = benefits.get(id).copied().unwrap_or(0.0);
            if b < 0.0 {
                vote.strength += b;
            }
            vote.strength > 0.0
        });
        self.banned.retain(|id, vote| {
            let b = benefits.get(id).copied().unwrap_or(0.0);
            if b > 0.0 {
                vote.strength -= b;
            }
            vote.strength > 0.0
        });
    }
}

impl<E: TuningEnv> IndexAdvisor for BanditAdvisor<E> {
    fn analyze_query(&mut self, stmt: &Statement) {
        self.statements += 1;
        let all = IndexSet::from_iter(self.arms.iter().copied());
        let ibg = self.env.ibg(stmt, all).graph;
        self.whatif_calls += ibg.whatif_calls() as u64;

        let scale = ibg.cost(&IndexSet::empty()) + 1.0;
        // In-context marginal benefits of every arm for this statement, all
        // served from the IBG memo (no extra what-if calls).
        let benefits: HashMap<IndexId, f64> = self
            .arms
            .iter()
            .map(|&id| (id, marginal_benefit(&ibg, id, &self.current)))
            .collect();
        self.erode_votes(&benefits);

        // Score every arm under the current model.
        let a_inv = invert(&self.a_matrix);
        let theta = mat_vec(&a_inv, &self.b_vec);
        let mut scored: Vec<(IndexId, f64, [f64; DIM])> = self
            .arms
            .iter()
            .map(|&id| {
                let x = self.features(&ibg, id, scale);
                let score = self.ucb(&theta, &a_inv, &x) - self.creation_penalty(id, scale);
                (id, score, x)
            })
            .collect();
        // Deterministic order: score descending, splitmix64 tie-break, id.
        scored.sort_by(|(ia, sa, _), (ib, sb, _)| {
            sb.partial_cmp(sa)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| self.tiebreak(*ia).cmp(&self.tiebreak(*ib)))
                .then_with(|| ia.cmp(ib))
        });

        // Greedy combinatorial selection with an incremental deployment
        // budget: pins are always in, bans are never in, deployed arms stay
        // while their UCB score is positive, and at most one *new* arm — the
        // best-scored undeployed one — is added per statement.  The budget
        // is what keeps transition churn bounded: a phase shift drains bad
        // arms wholesale (drops are cheap) but rebuilds one index at a time,
        // each re-entry individually justified to the safety gate.
        let mut proposal = IndexSet::from_iter(
            self.arms
                .iter()
                .copied()
                .filter(|id| self.pinned.contains_key(id)),
        );
        for &(id, score, _) in &scored {
            if proposal.len() >= MAX_CONFIG_SIZE {
                break;
            }
            if self.banned.contains_key(&id) || proposal.contains(id) {
                continue;
            }
            if self.current.contains(id) && score > 0.0 {
                proposal = proposal.union(&IndexSet::single(id));
            }
        }
        for &(id, score, _) in &scored {
            // `scored` is sorted best-first: the first undeployed arm is the
            // only deployment candidate this statement.
            if self.banned.contains_key(&id) || proposal.contains(id) || self.current.contains(id) {
                continue;
            }
            if score > 0.0 && proposal.len() < MAX_CONFIG_SIZE {
                proposal = proposal.union(&IndexSet::single(id));
            }
            break;
        }

        // Safety gate: adopt the proposal only if its model-estimated cost
        // (statement cost under the proposal plus the amortized transition)
        // does not exceed the estimated cost of staying put.
        let mut adopted_config = self.current.clone();
        if proposal != self.current {
            let transition = self.env.transition_cost(&self.current, &proposal);
            let est_proposed = ibg.cost(&proposal) + transition / HORIZON;
            let est_stay = ibg.cost(&self.current);
            let adopted = est_proposed <= est_stay + 1e-12;
            if adopted {
                adopted_config = proposal.clone();
            } else {
                self.safety_fallbacks += 1;
            }
            self.last_gate = Some(GateDecision {
                proposed: proposal,
                adopted,
                est_proposed,
                est_stay,
            });
        } else {
            self.last_gate = None;
        }
        self.current = adopted_config;

        // Semi-bandit model update: only the arms actually played (deployed)
        // receive their observed reward.
        for &(id, _, x) in &scored {
            if !self.current.contains(id) {
                continue;
            }
            let reward = benefits.get(&id).copied().unwrap_or(0.0) / scale;
            for i in 0..DIM {
                for j in 0..DIM {
                    self.a_matrix[i][j] += x[i] * x[j];
                }
                self.b_vec[i] += reward * x[i];
            }
        }

        // Refresh the sliding statistics for the next statement's features.
        for &id in &self.arms {
            let b = benefits.get(&id).copied().unwrap_or(0.0);
            self.idx_stats.record(id, self.statements, b);
        }
        // Pairwise interactions only within the deployed configuration — the
        // doi scan is bounded by `MAX_CONFIG_SIZE`² IBG memo lookups.
        let deployed: Vec<IndexId> = self.current.iter().collect();
        for (i, &a) in deployed.iter().enumerate() {
            for &b in deployed.iter().skip(i + 1) {
                let doi = degree_of_interaction(&ibg, a, b);
                self.int_stats.record(a, b, self.statements, doi);
            }
        }
    }

    fn recommend(&self) -> IndexSet {
        self.current.clone()
    }

    fn feedback(&mut self, positive: &IndexSet, negative: &IndexSet) {
        for id in positive.iter() {
            self.banned.remove(&id);
            let strength = self.env.create_cost(id).max(1.0);
            self.pinned.insert(id, Vote { strength });
            if !self.arms.contains(&id) {
                self.arms.push(id);
                self.arms.sort_unstable();
            }
            self.current = self.current.union(&IndexSet::single(id));
        }
        for id in negative.iter() {
            self.pinned.remove(&id);
            let strength = self.env.create_cost(id).max(1.0);
            self.banned.insert(id, Vote { strength });
            self.current.remove(id);
        }
    }

    fn name(&self) -> String {
        "BANDIT".to_string()
    }

    fn safety_fallbacks(&self) -> u64 {
        self.safety_fallbacks
    }

    /// Cumulative what-if optimizer calls issued through the IBGs built
    /// during analysis, exactly like WFIT and BC.
    fn whatif_calls(&self) -> u64 {
        self.whatif_calls
    }

    fn monitored_count(&self) -> usize {
        self.arms.len()
    }
}

/// The splitmix64 finalizer (same constants as the service's tenant seeds).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Invert a small symmetric positive-definite matrix by Gauss–Jordan
/// elimination with partial pivoting.  `A = λI + Σ x xᵀ` is always SPD, so
/// the pivots never vanish; the arithmetic is plain f64 in a fixed order,
/// which keeps replays bit-identical.
fn invert(a: &[[f64; DIM]; DIM]) -> [[f64; DIM]; DIM] {
    let mut m = *a;
    let mut inv = [[0.0; DIM]; DIM];
    for (i, row) in inv.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    for col in 0..DIM {
        // Partial pivot (deterministic: first maximal row wins).
        let mut pivot = col;
        for row in col + 1..DIM {
            if m[row][col].abs() > m[pivot][col].abs() {
                pivot = row;
            }
        }
        m.swap(col, pivot);
        inv.swap(col, pivot);
        let p = m[col][col];
        for j in 0..DIM {
            m[col][j] /= p;
            inv[col][j] /= p;
        }
        for row in 0..DIM {
            if row == col {
                continue;
            }
            let f = m[row][col];
            if f == 0.0 {
                continue;
            }
            for j in 0..DIM {
                m[row][j] -= f * m[col][j];
                inv[row][j] -= f * inv[col][j];
            }
        }
    }
    inv
}

/// `M·x` for the small fixed dimension.
fn mat_vec(m: &[[f64; DIM]; DIM], x: &[f64; DIM]) -> [f64; DIM] {
    let mut out = [0.0; DIM];
    for (i, row) in m.iter().enumerate() {
        out[i] = (0..DIM).map(|j| row[j] * x[j]).sum();
    }
    out
}

/// `xᵀ·M·x` for the small fixed dimension.
fn quad_form(m: &[[f64; DIM]; DIM], x: &[f64; DIM]) -> f64 {
    let mx = mat_vec(m, x);
    (0..DIM).map(|i| x[i] * mx[i]).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfit_core::env::{mock_statement, MockEnv};
    use wfit_core::hypercube;

    fn scripted() -> (MockEnv, Statement, Statement, IndexId) {
        let env = MockEnv::new(40.0, 1.0);
        let a = IndexId(0);
        let good = mock_statement(1);
        env.set_default_cost(&good, 100.0);
        env.set_cost(&good, &IndexSet::empty(), 100.0);
        env.set_cost(&good, &IndexSet::single(a), 20.0);
        let bad = mock_statement(2);
        env.set_default_cost(&bad, 5.0);
        env.set_cost(&bad, &IndexSet::empty(), 5.0);
        env.set_cost(&bad, &IndexSet::single(a), 80.0);
        (env, good, bad, a)
    }

    #[test]
    fn bandit_learns_to_deploy_a_beneficial_index() {
        let (env, good, _bad, a) = scripted();
        let mut bandit = BanditAdvisor::new(&env, vec![a], BanditConfig::default());
        for _ in 0..10 {
            bandit.analyze_query(&good);
        }
        assert!(
            bandit.recommend().contains(a),
            "rec = {}",
            bandit.recommend()
        );
        assert_eq!(bandit.statements_analyzed(), 10);
        assert!(bandit.whatif_calls() > 0);
        assert_eq!(bandit.name(), "BANDIT");
    }

    #[test]
    fn safety_gate_blocks_harmful_deployments_and_counts_fallbacks() {
        let (env, _good, bad, a) = scripted();
        // The arm is never played, so the model learns nothing about it: its
        // exploration bonus keeps its UCB score positive and the model keeps
        // proposing it.  Only the gate stands between the proposal and a
        // costly deployment.
        let mut bandit = BanditAdvisor::new(&env, vec![a], BanditConfig::default());
        for _ in 0..5 {
            bandit.analyze_query(&bad);
            assert!(
                bandit.recommend().is_empty(),
                "gate must keep the harmful index out"
            );
        }
        assert!(bandit.safety_fallbacks() > 0);
        let gate = bandit.last_gate().expect("proposal differed from current");
        assert!(!gate.adopted);
        assert!(gate.est_proposed > gate.est_stay);
    }

    #[test]
    fn gate_decisions_never_adopt_a_worse_estimate() {
        let (env, good, bad, a) = scripted();
        let mut bandit = BanditAdvisor::new(&env, vec![a], BanditConfig::default());
        for i in 0..20 {
            let stmt = if i % 3 == 0 { &bad } else { &good };
            bandit.analyze_query(stmt);
            if let Some(gate) = bandit.last_gate() {
                if gate.adopted {
                    assert!(gate.est_proposed <= gate.est_stay + 1e-9);
                }
            }
        }
    }

    #[test]
    fn replay_is_bit_identical() {
        let (env, good, bad, a) = scripted();
        let b = IndexId(7);
        env.set_cost(&good, &IndexSet::single(b), 60.0);
        env.set_cost(&good, &IndexSet::from_iter([a, b]), 15.0);
        let run = |seed: u64| {
            let mut bandit = BanditAdvisor::new(&env, vec![a, b], BanditConfig::with_seed(seed));
            let mut trace = Vec::new();
            for i in 0..30 {
                let stmt = if i % 4 == 0 { &bad } else { &good };
                bandit.analyze_query(stmt);
                for (id, s) in bandit.arm_scores(&good) {
                    trace.push((id, s.to_bits()));
                }
                trace.push((IndexId(u32::MAX), bandit.recommend().len() as u64));
            }
            trace
        };
        assert_eq!(run(1), run(1), "same seed must replay bit-identically");
    }

    #[test]
    fn votes_pin_and_ban_arms_immediately() {
        let (env, good, _bad, a) = scripted();
        let outsider = IndexId(77);
        let mut bandit = BanditAdvisor::new(&env, vec![a], BanditConfig::default());
        // A positive vote for an index outside the pool adds an arm and pins
        // it into the recommendation immediately.
        bandit.feedback(&IndexSet::single(outsider), &IndexSet::empty());
        assert!(bandit.recommend().contains(outsider));
        assert!(bandit.candidates().contains(&outsider));
        // A negative vote evicts immediately.
        bandit.feedback(&IndexSet::empty(), &IndexSet::single(outsider));
        assert!(!bandit.recommend().contains(outsider));
        // A ban keeps the arm out while the workload agrees with it…
        bandit.feedback(&IndexSet::empty(), &IndexSet::single(a));
        let bad = mock_statement(2);
        for _ in 0..3 {
            bandit.analyze_query(&bad);
            assert!(!bandit.recommend().contains(a), "banned arm must stay out");
        }
        // …but persistent contrary evidence erodes the ban (the mirror image
        // of pin erosion): each `good` statement shows +80 benefit against a
        // ban strength of 40.
        for _ in 0..10 {
            bandit.analyze_query(&good);
        }
        assert!(
            bandit.recommend().contains(a),
            "evidence must override a stale ban"
        );
    }

    #[test]
    fn workload_evidence_erodes_a_stale_pin() {
        let (env, _good, bad, a) = scripted();
        let mut bandit = BanditAdvisor::new(&env, vec![a], BanditConfig::default());
        bandit.feedback(&IndexSet::single(a), &IndexSet::empty());
        assert!(bandit.recommend().contains(a));
        // Each `bad` statement shows a −75 in-context benefit against a pin
        // strength of 40: the pin erodes after one statement and the gate
        // then lets the model drop the index.
        for _ in 0..10 {
            bandit.analyze_query(&bad);
        }
        assert!(
            !bandit.recommend().contains(a),
            "persistent contrary evidence must override the vote"
        );
    }

    #[test]
    fn max_config_size_bounds_the_deployment() {
        // Ten arms that each save 10 on the statement, additively: every arm
        // the bandit adds helps, so only the cap stops it from deploying all
        // ten.
        let env = MockEnv::new(1.0, 0.0);
        let q = mock_statement(9);
        let arms: Vec<IndexId> = (0..10).map(IndexId).collect();
        for mask in 0..1usize << arms.len() {
            let config = hypercube::set_of(&arms, mask);
            env.set_cost(&q, &config, 1000.0 - 10.0 * config.len() as f64);
        }
        let mut bandit = BanditAdvisor::new(&env, arms, BanditConfig::default());
        let mut largest = 0;
        for _ in 0..20 {
            bandit.analyze_query(&q);
            let deployed = bandit.recommend().len();
            assert!(deployed <= MAX_CONFIG_SIZE, "{deployed} indexes deployed");
            largest = largest.max(deployed);
        }
        assert_eq!(largest, MAX_CONFIG_SIZE);
    }

    #[test]
    fn matrix_inverse_roundtrips() {
        let mut a = [[0.0; DIM]; DIM];
        for (i, row) in a.iter_mut().enumerate() {
            row[i] = 2.0 + i as f64;
        }
        a[0][1] = 0.5;
        a[1][0] = 0.5;
        let inv = invert(&a);
        for (i, row) in a.iter().enumerate() {
            let product_row: Vec<f64> = (0..DIM)
                .map(|j| row.iter().zip(&inv).map(|(x, inv_k)| x * inv_k[j]).sum())
                .collect();
            for (j, &prod) in product_row.iter().enumerate() {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod - expect).abs() < 1e-9, "A·A⁻¹[{i}][{j}] = {prod}");
            }
        }
    }
}
