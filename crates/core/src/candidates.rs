//! Candidate maintenance: `chooseCands`, `topIndices` and `choosePartition`
//! (Section 5.2.2, Figures 6 and 7), plus the offline variant used by the
//! experiments to build a fixed stable partition (Section 6.1, "Generating the
//! Fixed Stable Partition").

use crate::config::WfitConfig;
use crate::env::TuningEnv;
use ibg::partition::{
    connected_components, covers, normalize, partition_loss, partition_state_count,
    InteractionWeights, Partition,
};
use ibg::{IndexBenefitGraph, IndexStatistics, InteractionStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simdb::index::{IndexId, IndexSet};
use simdb::query::Statement;

/// The evolving candidate pool of WFIT: the set `U` of ever-seen candidate
/// indices and the benefit / interaction statistics over them.
pub struct CandidatePool {
    /// All candidate indices seen so far (`U` in Figure 6).
    universe: Vec<IndexId>,
    /// `idxStats`: sliding benefit statistics per index.
    pub idx_stats: IndexStatistics,
    /// `intStats`: sliding interaction statistics per index pair.
    pub int_stats: InteractionStats,
    /// Number of workload statements analyzed so far (`N`).
    statements_seen: u64,
}

impl CandidatePool {
    /// Create an empty pool with the given statistics window (`histSize`).
    pub fn new(hist_size: usize) -> Self {
        Self {
            universe: Vec::new(),
            idx_stats: IndexStatistics::new(hist_size),
            int_stats: InteractionStats::new(hist_size),
            statements_seen: 0,
        }
    }

    /// All candidates seen so far.
    pub fn universe(&self) -> &[IndexId] {
        &self.universe
    }

    /// Number of statements analyzed.
    pub fn statements_seen(&self) -> u64 {
        self.statements_seen
    }

    /// Register candidates extracted from a statement (`U ← U ∪ extractIndices(q)`).
    pub fn add_candidates(&mut self, candidates: &[IndexId]) {
        for &c in candidates {
            if !self.universe.contains(&c) {
                self.universe.push(c);
            }
        }
    }

    /// `updateStats(IBG_q)`: record the per-statement maximum benefit of every
    /// relevant index and the degree of interaction of every relevant pair.
    ///
    /// Returns the position assigned to this statement.
    pub fn update_stats(&mut self, ibg: &IndexBenefitGraph) -> u64 {
        self.statements_seen += 1;
        let n = self.statements_seen;
        let relevant: Vec<IndexId> = ibg.relevant().iter().collect();
        for &a in &relevant {
            let beta = ibg::benefit::max_benefit(ibg, a);
            if beta > 0.0 {
                self.idx_stats.record(a, n, beta);
            }
        }
        for (i, &a) in relevant.iter().enumerate() {
            for &b in relevant.iter().skip(i + 1) {
                let d = ibg::doi::degree_of_interaction(ibg, a, b);
                if d > 0.0 {
                    self.int_stats.record(a, b, n, d);
                }
            }
        }
        n
    }

    /// `benefit*_N(a)` at the current position.
    pub fn current_benefit(&self, a: IndexId) -> f64 {
        self.idx_stats.current_benefit(a, self.statements_seen)
    }

    /// `doi*_N(a, b)` at the current position.
    pub fn current_doi(&self, a: IndexId, b: IndexId) -> f64 {
        self.int_stats.current_doi(a, b, self.statements_seen)
    }

    /// Current interaction weights over a set of indices.
    pub fn interaction_weights(&self, indices: &[IndexId]) -> InteractionWeights {
        let mut w = InteractionWeights::new();
        for (i, &a) in indices.iter().enumerate() {
            for &b in indices.iter().skip(i + 1) {
                let d = self.current_doi(a, b);
                if d > 0.0 {
                    w.set(a, b, d);
                }
            }
        }
        w
    }
}

/// `topIndices(X, u)` (Section 5.2.2): pick at most `u` indices from `X` with
/// the highest scores.  Indices already monitored (`monitored`) are scored by
/// their current benefit; other indices additionally pay their creation cost,
/// "which helps C be more stable".
pub fn top_indices<E: TuningEnv>(
    env: &E,
    pool: &CandidatePool,
    from: &[IndexId],
    monitored: &IndexSet,
    limit: usize,
) -> Vec<IndexId> {
    let mut scored: Vec<(f64, IndexId)> = from
        .iter()
        .map(|&a| {
            let benefit = pool.current_benefit(a);
            let score = if monitored.contains(a) {
                benefit
            } else {
                benefit - env.create_cost(a)
            };
            (score, a)
        })
        .collect();
    scored.sort_by(|(sa, ia), (sb, ib)| {
        sb.partial_cmp(sa)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(ia.cmp(ib))
    });
    scored.into_iter().take(limit).map(|(_, a)| a).collect()
}

/// `choosePartition(D, stateCnt)` (Figure 7): find a feasible partition of `D`
/// minimizing the loss (interaction weight across parts).
///
/// The search considers the current partition (restricted to `D`, with new
/// indices as singletons) as a baseline, then performs `rand_cnt` randomized
/// merge passes and keeps the best feasible result.
#[allow(clippy::too_many_arguments)]
pub fn choose_partition(
    indices: &[IndexId],
    current_partition: &Partition,
    weights: &InteractionWeights,
    state_cnt: u64,
    max_part_size: usize,
    rand_cnt: usize,
    rng: &mut StdRng,
) -> Partition {
    let index_set: IndexSet = IndexSet::from_iter(indices.iter().copied());
    let mut best: Option<(f64, Partition)> = None;

    // Baseline: the current partition restricted to D, plus singletons for the
    // new indices.
    let mut baseline: Partition = current_partition
        .iter()
        .map(|part| {
            part.iter()
                .copied()
                .filter(|id| index_set.contains(*id))
                .collect::<Vec<_>>()
        })
        .filter(|p: &Vec<IndexId>| !p.is_empty())
        .collect();
    let covered: IndexSet = IndexSet::from_iter(baseline.iter().flatten().copied());
    for &id in indices {
        if !covered.contains(id) {
            baseline.push(vec![id]);
        }
    }
    let baseline = normalize(baseline);
    if is_feasible(&baseline, state_cnt, max_part_size) {
        let loss = partition_loss(&baseline, weights);
        best = Some((loss, baseline));
    }

    for _ in 0..rand_cnt {
        let candidate = random_merge_pass(indices, weights, state_cnt, max_part_size, rng);
        let loss = partition_loss(&candidate, weights);
        let better = match &best {
            None => true,
            Some((best_loss, _)) => loss < *best_loss,
        };
        if better {
            best = Some((loss, candidate));
        }
    }

    match best {
        Some((_, p)) => p,
        // Last resort: all singletons is always feasible as long as
        // 2·|D| ≤ stateCnt; if even that fails the caller passed inconsistent
        // bounds and singletons are still the sanest answer.
        None => normalize(indices.iter().map(|&i| vec![i]).collect()),
    }
}

/// One randomized greedy merge pass (the loop body of Figure 7).
fn random_merge_pass(
    indices: &[IndexId],
    weights: &InteractionWeights,
    state_cnt: u64,
    max_part_size: usize,
    rng: &mut StdRng,
) -> Partition {
    let mut parts: Partition = indices.iter().map(|&i| vec![i]).collect();
    loop {
        // Candidate merges: pairs of parts with positive cross-loss that stay
        // feasible after merging.
        let mut singleton_pairs: Vec<(usize, usize, f64)> = Vec::new();
        let mut general_pairs: Vec<(usize, usize, f64)> = Vec::new();
        for i in 0..parts.len() {
            for j in (i + 1)..parts.len() {
                let cross = cross_loss(&parts[i], &parts[j], weights);
                if cross <= 0.0 {
                    continue;
                }
                if !merge_feasible(&parts, i, j, state_cnt, max_part_size) {
                    continue;
                }
                if parts[i].len() == 1 && parts[j].len() == 1 {
                    singleton_pairs.push((i, j, cross));
                } else {
                    let size_i = parts[i].len() as u32;
                    let size_j = parts[j].len() as u32;
                    let denom = (1u64 << (size_i + size_j)) as f64
                        - (1u64 << size_i) as f64
                        - (1u64 << size_j) as f64;
                    general_pairs.push((i, j, cross / denom.max(1.0)));
                }
            }
        }
        let pool = if !singleton_pairs.is_empty() {
            singleton_pairs
        } else if !general_pairs.is_empty() {
            general_pairs
        } else {
            break;
        };
        let (i, j) = weighted_choice(&pool, rng);
        let merged: Vec<IndexId> = parts[i].iter().chain(parts[j].iter()).copied().collect();
        // Remove the higher position first to keep the lower index valid.
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        parts.remove(hi);
        parts.remove(lo);
        parts.push(merged);
    }
    normalize(parts)
}

fn cross_loss(a: &[IndexId], b: &[IndexId], weights: &InteractionWeights) -> f64 {
    let mut loss = 0.0;
    for &x in a {
        for &y in b {
            loss += weights.get(x, y);
        }
    }
    loss
}

fn merge_feasible(
    parts: &Partition,
    i: usize,
    j: usize,
    state_cnt: u64,
    max_part_size: usize,
) -> bool {
    let merged_len = parts[i].len() + parts[j].len();
    if merged_len > max_part_size {
        return false;
    }
    let mut total = 0u64;
    for (k, part) in parts.iter().enumerate() {
        if k == i || k == j {
            continue;
        }
        total = total.saturating_add(1u64 << part.len().min(62));
    }
    total = total.saturating_add(1u64 << merged_len.min(62));
    total <= state_cnt
}

fn weighted_choice(pool: &[(usize, usize, f64)], rng: &mut StdRng) -> (usize, usize) {
    let total: f64 = pool.iter().map(|(_, _, w)| *w).sum();
    if total <= 0.0 {
        let (i, j, _) = pool[0];
        return (i, j);
    }
    let mut pick = rng.gen_range(0.0..total);
    for &(i, j, w) in pool {
        if pick < w {
            return (i, j);
        }
        pick -= w;
    }
    let (i, j, _) = pool[pool.len() - 1];
    (i, j)
}

/// Whether a partition satisfies the bounds.
pub fn is_feasible(partition: &Partition, state_cnt: u64, max_part_size: usize) -> bool {
    partition.iter().all(|p| p.len() <= max_part_size)
        && partition_state_count(partition) <= state_cnt
}

/// The offline variant of `chooseCands` described in Section 6.1: analyze the
/// *entire* workload once, average the benefit and degree-of-interaction
/// statistics over it, and derive a fixed candidate set `C ⊆ U` and a stable
/// partition of `C` to be used by every competing algorithm.
pub struct OfflineSelection {
    /// The selected candidates.
    pub candidates: Vec<IndexId>,
    /// Stable partition of the candidates.
    pub partition: Partition,
    /// The full mined universe (before `topIndices` pruning).
    pub universe: Vec<IndexId>,
}

/// Run the offline candidate/partition selection over a workload.
pub fn offline_selection<E: TuningEnv>(
    env: &E,
    workload: &[Statement],
    config: &WfitConfig,
) -> OfflineSelection {
    let mut pool = CandidatePool::new(usize::MAX >> 1);
    for stmt in workload {
        let cands = env.extract_candidates(stmt);
        pool.add_candidates(&cands);
        let relevant = IndexSet::from_iter(cands.iter().copied());
        let ibg = IndexBenefitGraph::build(relevant, |cfg| env.whatif(stmt, cfg));
        pool.update_stats(&ibg);
    }
    let universe = pool.universe().to_vec();
    let candidates = top_indices(env, &pool, &universe, &IndexSet::empty(), config.idx_cnt);
    let weights = pool.interaction_weights(&candidates);
    let partition = if config.assume_independence {
        normalize(candidates.iter().map(|&c| vec![c]).collect())
    } else {
        let minimal = connected_components(&candidates, &weights, 0.0);
        if is_feasible(&minimal, config.state_cnt, config.max_part_size) {
            minimal
        } else {
            let mut rng = StdRng::seed_from_u64(config.partition_seed);
            choose_partition(
                &candidates,
                &minimal,
                &weights,
                config.state_cnt,
                config.max_part_size,
                config.rand_cnt.max(16),
                &mut rng,
            )
        }
    };
    debug_assert!(covers(&partition, &candidates));
    OfflineSelection {
        candidates,
        partition,
        universe,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::MockEnv;

    fn ids(v: &[u32]) -> Vec<IndexId> {
        v.iter().map(|&i| IndexId(i)).collect()
    }

    #[test]
    fn candidate_pool_dedups_universe() {
        let mut pool = CandidatePool::new(10);
        pool.add_candidates(&ids(&[1, 2]));
        pool.add_candidates(&ids(&[2, 3]));
        assert_eq!(pool.universe().len(), 3);
    }

    #[test]
    fn top_indices_prefers_monitored_and_high_benefit() {
        let env = MockEnv::new(50.0, 0.0);
        let mut pool = CandidatePool::new(10);
        pool.add_candidates(&ids(&[1, 2, 3]));
        // Fake statistics: index 1 has benefit 100, index 2 has 60, index 3 none.
        pool.statements_seen = 1;
        pool.idx_stats.record(IndexId(1), 1, 100.0);
        pool.idx_stats.record(IndexId(2), 1, 60.0);
        // Neither is monitored: both pay the creation cost, index 3 scores -50.
        let top = top_indices(&env, &pool, &ids(&[1, 2, 3]), &IndexSet::empty(), 2);
        assert_eq!(top, ids(&[1, 2]));
        // Monitoring index 3 waives its creation cost, but its benefit is
        // still zero, so with limit 1 the winner is index 1.
        let top = top_indices(
            &env,
            &pool,
            &ids(&[1, 2, 3]),
            &IndexSet::single(IndexId(3)),
            1,
        );
        assert_eq!(top, ids(&[1]));
        // A monitored index with modest benefit outranks an unmonitored index
        // whose benefit does not cover its creation cost.
        let top = top_indices(&env, &pool, &ids(&[2, 3]), &IndexSet::single(IndexId(3)), 1);
        assert_eq!(top, ids(&[2])); // 60-50=10 > 0
        pool.idx_stats.record(IndexId(3), 1, 5.0);
        let top = top_indices(&env, &pool, &ids(&[2, 3]), &IndexSet::single(IndexId(3)), 1);
        assert_eq!(top, ids(&[2]));
    }

    #[test]
    fn choose_partition_groups_strong_interactions() {
        let mut rng = StdRng::seed_from_u64(7);
        let idx = ids(&[1, 2, 3, 4]);
        let mut w = InteractionWeights::new();
        w.set(IndexId(1), IndexId(2), 100.0);
        w.set(IndexId(3), IndexId(4), 80.0);
        w.set(IndexId(2), IndexId(3), 0.5);
        let p = choose_partition(&idx, &Vec::new(), &w, 16, 8, 8, &mut rng);
        assert!(covers(&p, &idx));
        assert!(is_feasible(&p, 16, 8));
        // The two strong pairs must not be separated.
        let loss = partition_loss(&p, &w);
        assert!(loss <= 0.5 + 1e-9, "loss {loss}");
    }

    #[test]
    fn choose_partition_respects_state_cnt() {
        let mut rng = StdRng::seed_from_u64(3);
        let idx = ids(&[1, 2, 3, 4, 5, 6]);
        let mut w = InteractionWeights::new();
        // Everything interacts with everything: the minimum stable partition
        // would need 2^6 = 64 states, but we only allow 16.
        for i in 1..=6u32 {
            for j in (i + 1)..=6u32 {
                w.set(IndexId(i), IndexId(j), 1.0);
            }
        }
        let p = choose_partition(&idx, &Vec::new(), &w, 16, 8, 16, &mut rng);
        assert!(covers(&p, &idx));
        assert!(partition_state_count(&p) <= 16);
        assert!(p.len() >= 2);
    }

    #[test]
    fn choose_partition_baseline_preserves_current_grouping() {
        let mut rng = StdRng::seed_from_u64(1);
        let idx = ids(&[1, 2, 3]);
        let current: Partition = vec![ids(&[1, 2]), ids(&[3])];
        let w = InteractionWeights::new(); // no interactions recorded
        let p = choose_partition(&idx, &current, &w, 100, 8, 0, &mut rng);
        // With no random iterations the baseline (current partition restricted
        // to D) must be returned.
        assert_eq!(p, normalize(current));
    }

    #[test]
    fn choose_partition_with_infeasible_bounds_falls_back_to_singletons() {
        let mut rng = StdRng::seed_from_u64(1);
        let idx = ids(&[1, 2, 3]);
        let mut w = InteractionWeights::new();
        w.set(IndexId(1), IndexId(2), 5.0);
        // state_cnt of 1 cannot even hold singletons (needs 6); the function
        // still returns a covering partition.
        let p = choose_partition(&idx, &Vec::new(), &w, 1, 8, 4, &mut rng);
        assert!(covers(&p, &idx));
    }

    #[test]
    fn max_part_size_is_enforced() {
        let mut rng = StdRng::seed_from_u64(11);
        let idx: Vec<IndexId> = (0..8).map(IndexId).collect();
        let mut w = InteractionWeights::new();
        for i in 0..8u32 {
            for j in (i + 1)..8u32 {
                w.set(IndexId(i), IndexId(j), 10.0);
            }
        }
        let p = choose_partition(&idx, &Vec::new(), &w, 10_000, 3, 16, &mut rng);
        assert!(p.iter().all(|part| part.len() <= 3));
        assert!(covers(&p, &idx));
    }

    #[test]
    fn is_feasible_checks_both_bounds() {
        let p: Partition = vec![ids(&[1, 2, 3]), ids(&[4])];
        assert!(is_feasible(&p, 10, 4));
        assert!(!is_feasible(&p, 9, 4));
        assert!(!is_feasible(&p, 100, 2));
    }

    #[test]
    fn update_stats_records_benefits_and_interactions() {
        use crate::env::mock_statement;
        let env = MockEnv::new(10.0, 0.0);
        let a = IndexId(0);
        let b = IndexId(1);
        let q = mock_statement(1);
        // a alone saves 10, b alone saves 10, together they save only 12 (a
        // strong interaction).
        env.set_cost(&q, &IndexSet::empty(), 100.0);
        env.set_cost(&q, &IndexSet::single(a), 90.0);
        env.set_cost(&q, &IndexSet::single(b), 90.0);
        env.set_cost(&q, &IndexSet::from_iter([a, b]), 88.0);
        let mut pool = CandidatePool::new(10);
        pool.add_candidates(&[a, b]);
        let ibg = IndexBenefitGraph::build(IndexSet::from_iter([a, b]), |cfg| env.whatif(&q, cfg));
        pool.update_stats(&ibg);
        assert_eq!(pool.statements_seen(), 1);
        assert!(pool.current_benefit(a) > 0.0);
        assert!(pool.current_benefit(b) > 0.0);
        assert!(pool.current_doi(a, b) > 0.0);
        let w = pool.interaction_weights(&[a, b]);
        assert!(w.get(a, b) > 0.0);
    }
}
