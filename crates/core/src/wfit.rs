//! The WFIT algorithm (Section 5): WFA⁺ plus DBA feedback and automatic
//! candidate / partition maintenance.

use crate::advisor::IndexAdvisor;
use crate::candidates::{
    choose_partition, is_feasible, top_indices, CandidatePool, MAX_PART_SIZE, PARTITION_SEED,
};
use crate::config::WfitConfig;
use crate::env::TuningEnv;
use crate::hypercube;
use crate::wfa::WfaInstance;
use ibg::partition::{normalize, Partition};
use ibg::IndexBenefitGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simdb::index::{IndexId, IndexSet};
use simdb::query::Statement;

/// Maximum number of candidates considered relevant to a single statement
/// when building its index benefit graph: a limit keeping per-statement
/// analysis bounded.  Candidates beyond it are ranked out by current benefit.
const MAX_RELEVANT_PER_STATEMENT: usize = 16;

/// The WFIT semi-automatic index advisor.
///
/// See Figure 4 of the paper for the interface this mirrors:
/// `analyzeQuery`, `recommend` and `feedback`, with `chooseCands` and
/// `repartition` as internal steps of `analyzeQuery`.
pub struct Wfit<E: TuningEnv> {
    env: E,
    config: WfitConfig,
    pool: CandidatePool,
    partition: Partition,
    parts: Vec<WfaInstance>,
    initial: IndexSet,
    /// The set the DBA has actually materialized, when known (fed back by the
    /// evaluation harness or by implicit feedback); falls back to the current
    /// recommendation.
    materialized: Option<IndexSet>,
    rng: StdRng,
    repartitions: u64,
    whatif_calls: u64,
    statements: u64,
    name: String,
}

impl<E: TuningEnv> Wfit<E> {
    /// Create a WFIT instance starting from an empty materialized set.
    ///
    /// The environment is taken **by value**: pass `&db` for a borrowed
    /// advisor (the harness style) or an `Arc<Database>`-backed environment
    /// for an owned, `'static` one (the tuning-service style).
    pub fn new(env: E, config: WfitConfig) -> Self {
        Self::with_initial(env, config, IndexSet::empty())
    }

    /// Create a WFIT instance starting from the materialized set `initial`
    /// (`S0` in the paper); per the initialization in Figure 4, the initial
    /// candidate set is `S0` with singleton parts.
    pub fn with_initial(env: E, config: WfitConfig, initial: IndexSet) -> Self {
        let partition: Partition = normalize(initial.iter().map(|id| vec![id]).collect());
        let parts = partition
            .iter()
            .map(|part| new_instance(&env, part, &initial))
            .collect();
        let rng = StdRng::seed_from_u64(PARTITION_SEED);
        let mut pool = CandidatePool::new(config.hist_size);
        pool.add_candidates(&initial.iter().collect::<Vec<_>>());
        Self {
            env,
            config,
            pool,
            partition,
            parts,
            initial,
            materialized: None,
            rng,
            repartitions: 0,
            whatif_calls: 0,
            statements: 0,
            name: "WFIT".to_string(),
        }
    }

    /// Create WFIT with a *fixed* candidate set and stable partition: WFA⁺
    /// (Section 4.2) plus the feedback mechanism, the simplified variant used
    /// by the paper's Figures 8–11 ("chooseCands always returns
    /// {C1, …, CK}").  It runs one WFA instance per part and unions their
    /// recommendations; by Theorem 4.2 that recommends exactly what a single
    /// WFA over all the candidates would, while tracking `Σ_k 2^|C_k|`
    /// configurations instead of `2^|C|`.  Candidate maintenance is disabled.
    pub fn with_fixed_partition(
        env: E,
        config: WfitConfig,
        partition: Partition,
        initial: IndexSet,
    ) -> Self {
        let partition = normalize(partition);
        let parts = partition
            .iter()
            .map(|part| new_instance(&env, part, &initial))
            .collect();
        let rng = StdRng::seed_from_u64(PARTITION_SEED);
        let mut pool = CandidatePool::new(config.hist_size);
        let members: Vec<IndexId> = partition.iter().flatten().copied().collect();
        pool.add_candidates(&members);
        Self {
            env,
            config,
            pool,
            partition,
            parts,
            initial,
            materialized: None,
            rng,
            repartitions: 0,
            whatif_calls: 0,
            statements: 0,
            name: "WFIT-fixed".to_string(),
        }
        .frozen()
    }

    fn frozen(mut self) -> Self {
        self.config.idx_cnt = 0; // marks candidate maintenance as disabled
        self
    }

    fn maintenance_enabled(&self) -> bool {
        self.config.idx_cnt > 0
    }

    /// Override the display name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Tell WFIT which indices the DBA has actually materialized (used to pin
    /// them in the candidate set, mirroring `M` in Figure 6).
    pub fn notify_materialized(&mut self, materialized: IndexSet) {
        self.materialized = Some(materialized);
    }

    /// The current stable partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Number of analyzed statements.
    pub fn statements_analyzed(&self) -> u64 {
        self.statements
    }

    /// All candidates currently monitored (`C = ⋃_k C_k`).
    pub fn monitored(&self) -> IndexSet {
        IndexSet::from_iter(self.partition.iter().flatten().copied())
    }

    /// Indices from the candidate pool that are relevant to the statement:
    /// the newly extracted candidates plus every monitored candidate whose
    /// presence changes the statement's cost.
    fn relevant_for(&mut self, stmt: &Statement, extracted: &[IndexId]) -> IndexSet {
        let mut relevant: Vec<IndexId> = extracted.to_vec();
        let monitored = self.monitored();
        let base = self.env.cost(stmt, &IndexSet::empty());
        self.whatif_calls += 1;
        for id in monitored.iter() {
            if relevant.contains(&id) {
                continue;
            }
            let c = self.env.cost(stmt, &IndexSet::single(id));
            self.whatif_calls += 1;
            if (c - base).abs() > 1e-9 {
                relevant.push(id);
            }
        }
        // Cap the per-statement analysis: keep monitored + highest current
        // benefit candidates.
        if relevant.len() > MAX_RELEVANT_PER_STATEMENT {
            relevant.sort_by(|a, b| {
                let ka = (monitored.contains(*a), self.pool.current_benefit(*a));
                let kb = (monitored.contains(*b), self.pool.current_benefit(*b));
                kb.partial_cmp(&ka).unwrap_or(std::cmp::Ordering::Equal)
            });
            relevant.truncate(MAX_RELEVANT_PER_STATEMENT);
        }
        IndexSet::from_iter(relevant)
    }

    /// `chooseCands(q)` (Figure 6): returns the new stable partition.
    fn choose_cands(&mut self, ibg: &IndexBenefitGraph) -> Partition {
        // M: indices the DBA has materialized (or, lacking that information,
        // the indices WFIT is currently recommending) — they must stay in the
        // candidate set to avoid overriding the DBA's materializations.
        let materialized = self
            .materialized
            .clone()
            .unwrap_or_else(|| self.recommend());
        let mut m: Vec<IndexId> = materialized
            .iter()
            .filter(|id| self.pool.universe().contains(id))
            .collect();
        m.sort_unstable();

        let m_set = IndexSet::from_iter(m.iter().copied());
        let rest: Vec<IndexId> = self
            .pool
            .universe()
            .iter()
            .copied()
            .filter(|id| !m_set.contains(*id))
            .collect();
        let limit = self.config.idx_cnt.saturating_sub(m.len());
        let monitored = self.monitored();
        let mut d = m;
        d.extend(top_indices(&self.env, &self.pool, &rest, &monitored, limit));
        d.sort_unstable();
        d.dedup();

        let _ = ibg; // statistics were already folded into the pool
        if self.config.assume_independence {
            return normalize(d.iter().map(|&id| vec![id]).collect());
        }
        let weights = self.pool.interaction_weights(&d);
        choose_partition(
            &d,
            &self.partition,
            &weights,
            self.config.state_cnt,
            MAX_PART_SIZE,
            self.config.rand_cnt,
            &mut self.rng,
        )
    }

    /// `repartition({D1, …, DM})` (Figure 5): rebuild the per-part WFA
    /// instances, initializing the new work functions from the old ones.
    fn repartition(&mut self, new_partition: Partition) {
        let old_c = self.monitored();
        let curr_rec = self.recommend();
        let mut new_parts = Vec::with_capacity(new_partition.len());
        for dm in &new_partition {
            let dm_set = IndexSet::from_iter(dm.iter().copied());
            let size = 1usize << dm.len();
            let mut x = vec![0.0f64; size];
            for (mask, value) in x.iter_mut().enumerate() {
                let config = hypercube::set_of(dm, mask);
                // Σ_k w^(k)[C_k ∩ X]
                let mut v = 0.0;
                for part in &self.parts {
                    v += part.work_value(&config);
                }
                // δ(S0 ∩ Dm − C, X − C): account for the creation cost of
                // indices that were never tracked before.
                let new_in_dm = dm_set.difference(&old_c);
                let from = self.initial.intersection(&new_in_dm);
                let to = config.difference(&old_c);
                v += self.env.transition_cost(&from, &to);
                *value = v;
            }
            let create = dm.iter().map(|&id| self.env.create_cost(id)).collect();
            let drop = dm.iter().map(|&id| self.env.drop_cost(id)).collect();
            let new_rec = dm_set.intersection(&curr_rec);
            new_parts.push(WfaInstance::with_state(
                dm.clone(),
                create,
                drop,
                x,
                &new_rec,
            ));
        }
        self.parts = new_parts;
        self.partition = new_partition;
        self.repartitions += 1;
    }
}

/// WFA⁺ over `partition` with the default configuration and an empty
/// initial set: the advisor fixture of the crate's unit tests.
#[cfg(test)]
pub(crate) fn fixed_wfit<E: TuningEnv>(env: E, partition: Partition) -> Wfit<E> {
    Wfit::with_fixed_partition(env, WfitConfig::default(), partition, IndexSet::empty())
}

fn new_instance<E: TuningEnv>(env: &E, part: &[IndexId], initial: &IndexSet) -> WfaInstance {
    let create = part.iter().map(|&id| env.create_cost(id)).collect();
    let drop = part.iter().map(|&id| env.drop_cost(id)).collect();
    WfaInstance::new(part.to_vec(), create, drop, initial)
}

impl<E: TuningEnv> IndexAdvisor for Wfit<E> {
    fn analyze_query(&mut self, stmt: &Statement) {
        self.statements += 1;

        // Candidate extraction and statistics maintenance.
        let extracted = if self.maintenance_enabled() {
            let extracted = self.env.extract_candidates(stmt);
            self.pool.add_candidates(&extracted);
            extracted
        } else {
            Vec::new()
        };
        let relevant = if self.maintenance_enabled() {
            self.relevant_for(stmt, &extracted)
        } else {
            // Fixed-partition mode: only the monitored candidates matter.
            self.monitored()
        };
        let ibg = self.env.ibg(stmt, relevant).graph;
        self.whatif_calls += ibg.whatif_calls() as u64;

        // chooseCands / repartition.
        if self.maintenance_enabled() {
            self.pool.update_stats(ibg.as_ref());
            let new_partition = self.choose_cands(ibg.as_ref());
            if new_partition != self.partition
                && is_feasible(&new_partition, self.config.state_cnt.max(2), MAX_PART_SIZE)
            {
                self.repartition(new_partition);
            }
        }

        // Per-part work-function update.
        for part in &mut self.parts {
            part.analyze_query(|cfg| ibg.cost(cfg));
        }
    }

    fn recommend(&self) -> IndexSet {
        let mut rec = IndexSet::empty();
        for part in &self.parts {
            rec = rec.union(&part.recommend());
        }
        rec
    }

    fn feedback(&mut self, positive: &IndexSet, negative: &IndexSet) {
        // Votes for indices WFIT is not yet monitoring: create a singleton
        // part for each so the consistency constraint can be honored, and add
        // them to the candidate pool so chooseCands considers them later.
        let monitored = self.monitored();
        let unknown_positive: Vec<IndexId> = positive
            .iter()
            .filter(|id| !monitored.contains(*id))
            .collect();
        if !unknown_positive.is_empty() {
            self.pool.add_candidates(&unknown_positive);
            for id in unknown_positive {
                let part = vec![id];
                self.parts
                    .push(new_instance(&self.env, &part, &self.initial));
                self.partition.push(part);
            }
            self.partition = normalize(std::mem::take(&mut self.partition));
            // Keep parts aligned with the normalized partition order.
            self.parts.sort_by_key(|p| p.indices().to_vec());
        }
        for part in &mut self.parts {
            part.apply_feedback(positive, negative);
        }
    }

    fn name(&self) -> String {
        self.name.clone()
    }

    /// Cumulative what-if optimizer calls issued through the IBG.
    fn whatif_calls(&self) -> u64 {
        self.whatif_calls
    }

    /// Number of times `repartition` changed the stable partition.
    fn repartitions(&self) -> u64 {
        self.repartitions
    }

    fn states_tracked(&self) -> u64 {
        self.parts.iter().map(|p| p.state_count() as u64).sum()
    }

    fn monitored_count(&self) -> usize {
        self.monitored().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{mock_statement, MockEnv};

    /// Mock environment with two indices that strongly benefit one statement
    /// each, plus an "update" statement that penalizes index b.
    fn scripted_env() -> (MockEnv, Vec<Statement>, IndexId, IndexId) {
        let env = MockEnv::new(50.0, 1.0);
        let a = IndexId(0);
        let b = IndexId(1);
        let qa = mock_statement(1);
        let qb = mock_statement(2);
        let upd = mock_statement(3);
        for (q, helped) in [(&qa, a), (&qb, b)] {
            for mask in 0..4 {
                let cfg = hypercube::set_of(&[a, b], mask);
                let cost = if cfg.contains(helped) { 20.0 } else { 100.0 };
                env.set_cost(q, &cfg, cost);
            }
        }
        // The update statement: every index costs 30 extra maintenance.
        for mask in 0..4 {
            let cfg = hypercube::set_of(&[a, b], mask);
            env.set_cost(&upd, &cfg, 10.0 + 30.0 * cfg.len() as f64);
        }
        env.set_candidates(&qa, vec![a]);
        env.set_candidates(&qb, vec![b]);
        env.set_candidates(&upd, vec![]);
        (env, vec![qa, qb, upd], a, b)
    }

    /// Mock environment with independent indices: index `i` saves
    /// `savings[i]` on statement `i` whatever else is materialized, so costs
    /// are additive and every partition of the indices is stable.
    fn additive_env(
        savings: &[f64],
        base: f64,
        create: f64,
    ) -> (MockEnv, Vec<Statement>, Vec<IndexId>) {
        let env = MockEnv::new(create, 0.0);
        let ids: Vec<IndexId> = (0..savings.len() as u32).map(IndexId).collect();
        let mut stmts = Vec::new();
        for (i, saving) in savings.iter().enumerate() {
            let q = mock_statement(i as u32 + 1);
            for mask in 0..1usize << ids.len() {
                let cfg = hypercube::set_of(&ids, mask);
                let cost = if cfg.contains(ids[i]) {
                    base - saving
                } else {
                    base
                };
                env.set_cost(&q, &cfg, cost);
            }
            stmts.push(q);
        }
        (env, stmts, ids)
    }

    #[test]
    fn theorem_4_2_singleton_and_joint_partitions_agree() {
        // WFA⁺ over the singleton partition and over one joint part must
        // recommend the same indices after every statement.
        let (env, stmts, ids) = additive_env(&[30.0, 5.0, 40.0], 100.0, 25.0);
        let mut split = fixed_wfit(&env, ids.iter().map(|&i| vec![i]).collect());
        let mut joint = fixed_wfit(&env, vec![ids.clone()]);
        // Replay the workload a few times so recommendations evolve.
        for round in 0..4 {
            for q in &stmts {
                split.analyze_query(q);
                joint.analyze_query(q);
                assert_eq!(
                    split.recommend(),
                    joint.recommend(),
                    "round {round}: partitioned and joint WFA diverged"
                );
            }
        }
        // Indices with repeated savings above the create cost get recommended,
        // the useless one does not.
        let rec = split.recommend();
        assert!(rec.contains(ids[0]));
        assert!(rec.contains(ids[2]));
        assert!(!rec.contains(ids[1]));
    }

    #[test]
    fn feedback_applies_across_parts() {
        let (env, stmts, ids) = additive_env(&[10.0, 10.0], 50.0, 100.0);
        let mut adv = fixed_wfit(&env, ids.iter().map(|&i| vec![i]).collect());
        adv.analyze_query(&stmts[0]);
        assert_eq!(adv.recommend(), IndexSet::empty());
        let both = IndexSet::from_iter(ids.iter().copied());
        adv.feedback(&both, &IndexSet::empty());
        assert_eq!(adv.recommend(), both);
        adv.feedback(&IndexSet::empty(), &IndexSet::single(ids[0]));
        let rec = adv.recommend();
        assert!(!rec.contains(ids[0]));
        assert!(rec.contains(ids[1]));
    }

    #[test]
    fn wfit_learns_useful_indexes_online() {
        let (env, qs, a, b) = scripted_env();
        let mut wfit = Wfit::new(&env, WfitConfig::default());
        for _ in 0..6 {
            wfit.analyze_query(&qs[0]);
            wfit.analyze_query(&qs[1]);
        }
        let rec = wfit.recommend();
        assert!(rec.contains(a), "rec = {rec}");
        assert!(rec.contains(b), "rec = {rec}");
        assert!(wfit.statements_analyzed() == 12);
        assert!(wfit.whatif_calls() > 0);
    }

    #[test]
    fn wfit_drops_indexes_when_updates_dominate() {
        let (env, qs, a, _b) = scripted_env();
        let mut wfit = Wfit::new(&env, WfitConfig::default());
        for _ in 0..6 {
            wfit.analyze_query(&qs[0]);
        }
        assert!(wfit.recommend().contains(a));
        // A long run of update statements makes every index a liability.
        for _ in 0..20 {
            wfit.analyze_query(&qs[2]);
        }
        assert!(
            wfit.recommend().is_empty(),
            "updates should force the indexes out, got {}",
            wfit.recommend()
        );
    }

    #[test]
    fn feedback_is_respected_and_recoverable() {
        let (env, qs, a, b) = scripted_env();
        let mut wfit = Wfit::new(&env, WfitConfig::default());
        wfit.analyze_query(&qs[0]);
        // Negative vote on a, positive on b (which WFIT has not even seen yet).
        wfit.feedback(&IndexSet::single(b), &IndexSet::single(a));
        let rec = wfit.recommend();
        assert!(!rec.contains(a));
        assert!(
            rec.contains(b),
            "positive vote must be honored, rec = {rec}"
        );
        // Workload evidence can override the positive vote over time.
        for _ in 0..20 {
            wfit.analyze_query(&qs[2]);
        }
        assert!(!wfit.recommend().contains(b));
    }

    #[test]
    fn consistency_constraint_holds_immediately_after_votes() {
        let (env, qs, a, b) = scripted_env();
        let mut wfit = Wfit::new(&env, WfitConfig::default());
        for _ in 0..4 {
            wfit.analyze_query(&qs[0]);
            wfit.analyze_query(&qs[1]);
        }
        wfit.feedback(&IndexSet::single(a), &IndexSet::single(b));
        let rec = wfit.recommend();
        assert!(rec.contains(a) && !rec.contains(b));
        // Another vote before any query must still be consistent.
        wfit.feedback(&IndexSet::single(b), &IndexSet::empty());
        assert!(wfit.recommend().contains(b));
    }

    #[test]
    fn fixed_partition_mode_does_not_repartition() {
        let (env, qs, a, b) = scripted_env();
        let mut wfit = fixed_wfit(&env, vec![vec![a], vec![b]]);
        for _ in 0..5 {
            wfit.analyze_query(&qs[0]);
            wfit.analyze_query(&qs[1]);
        }
        assert_eq!(wfit.repartitions(), 0);
        assert_eq!(wfit.partition().len(), 2);
        assert!(wfit.recommend().contains(a));
        assert!(wfit.recommend().contains(b));
    }

    #[test]
    fn state_count_respects_partition() {
        let (env, _qs, a, b) = scripted_env();
        // Empty parts are dropped.
        let wfit = fixed_wfit(&env, vec![vec![], vec![a, b], vec![]]);
        assert_eq!(wfit.states_tracked(), 4);
        assert_eq!(wfit.partition().len(), 1);
        let wfit2 = fixed_wfit(&env, vec![vec![a], vec![b]]);
        assert_eq!(wfit2.states_tracked(), 4); // 2 + 2
        assert_eq!(wfit2.monitored_count(), 2);
    }

    #[test]
    fn initial_materialized_set_is_tracked() {
        let (env, qs, a, _b) = scripted_env();
        let mut wfit = Wfit::with_initial(&env, WfitConfig::default(), IndexSet::single(a));
        // The initial candidate set is S0 with singleton parts (Figure 4).
        assert_eq!(wfit.partition().len(), 1);
        assert_eq!(wfit.recommend(), IndexSet::single(a));
        wfit.analyze_query(&qs[0]);
        assert!(wfit.recommend().contains(a));
    }

    #[test]
    fn notify_materialized_pins_indexes_in_candidate_set() {
        let (env, qs, a, b) = scripted_env();
        let mut wfit = Wfit::new(&env, WfitConfig::default());
        wfit.analyze_query(&qs[0]);
        wfit.analyze_query(&qs[1]);
        wfit.notify_materialized(IndexSet::from_iter([a, b]));
        wfit.analyze_query(&qs[0]);
        let monitored = wfit.monitored();
        assert!(monitored.contains(a) && monitored.contains(b));
    }

    #[test]
    fn independence_variant_uses_singleton_parts() {
        let (env, qs, _a, _b) = scripted_env();
        let mut wfit = Wfit::new(&env, WfitConfig::independent()).with_name("WFIT-IND");
        for _ in 0..3 {
            wfit.analyze_query(&qs[0]);
            wfit.analyze_query(&qs[1]);
        }
        assert!(wfit.partition().iter().all(|p| p.len() == 1));
        assert_eq!(wfit.name(), "WFIT-IND");
    }
}
