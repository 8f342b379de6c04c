//! The offline optimal oracle `OPT`.
//!
//! OPT "has full knowledge of the workload and generates the optimal
//! recommendations that minimize total work" (Section 6.1).  With a stable
//! partition `{C_1, …, C_K}`, the total work decomposes per part (see the
//! proof of Theorem 4.3), so the optimum can be computed exactly by one
//! dynamic program per part over the configurations `X ⊆ C_k`:
//!
//! ```text
//! opt_n(Y) = min_X { opt_{n−1}(X) + δ(X, Y) } + cost(q_n, Y),   opt_0(S_0 ∩ C_k) = 0
//! ```
//!
//! The cumulative optimum after `n` statements (the denominator of the
//! figures) is `Σ_k min_Y opt_n^{(k)}(Y) − (K−1) Σ_{i≤n} cost(q_i, ∅)`, and
//! backtracking the argmins yields OPT's create/drop schedule, from which the
//! `V_GOOD` feedback stream of Figure 9 is derived.
//!
//! The minimum over `X` is the δ-transform of `opt_{n−1}`
//! ([`wfit_core::hypercube::min_plus_delta`]), one call per part and
//! statement, with the lowest minimizing `X` as the predecessor.  The DP
//! costs `O(n · Σ_k |C_k| · 2^{|C_k|} · L)` for near-tie lists of mean
//! length `L` (about 5 on the drift workload) instead of the scan's
//! `O(n · Σ_k 4^{|C_k|})`.  The kernel returns the scan's bits and argmins
//! exactly, so `cumulative`, `total` and the schedule, and with them every
//! `opt_ratio` and `regret` measured against OPT, are the scan's to the bit;
//! the unit tests keep the scan as the reference DP.

use ibg::partition::Partition;
use ibg::IndexBenefitGraph;
use simdb::index::{IndexId, IndexSet};
use simdb::query::Statement;
use wfit_core::env::TuningEnv;
use wfit_core::evaluator::FeedbackStream;
use wfit_core::hypercube::{mask_of, min_plus_delta, set_of};

/// The result of the offline optimization.
#[derive(Debug, Clone)]
pub struct OptSchedule {
    /// The configuration OPT uses for each statement (union across parts).
    pub schedule: Vec<IndexSet>,
    /// Cumulative optimal total work after each statement — the `OPT = 1`
    /// normalization curve of the figures.
    pub cumulative: Vec<f64>,
    /// Total work of the optimal schedule over the full workload.
    pub total: f64,
    /// Index creations along the schedule: `(statement position, index)`.
    pub creations: Vec<(usize, IndexId)>,
    /// Index drops along the schedule: `(statement position, index)`.
    pub drops: Vec<(usize, IndexId)>,
}

impl OptSchedule {
    /// Cumulative optimal total work after `n` statements (1-based).
    pub fn cumulative_at(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.cumulative[n.min(self.cumulative.len()) - 1]
        }
    }

    /// Clamped cumulative regret of an online run against this schedule.
    ///
    /// `cumulative` is the run's cumulative total-work series (one entry per
    /// statement).  Per statement the regret increment is
    /// `max(0, step(run) − step(OPT))`, so the series is monotone
    /// non-decreasing *by construction* — unlike the raw difference
    /// `run(n) − OPT(n)`, which can dip when OPT pays a creation the online
    /// algorithm already paid earlier.  The final value bounds
    /// `run_total − opt_total` from above.
    pub fn regret_series(&self, cumulative: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(cumulative.len());
        let mut acc = 0.0;
        let mut prev = 0.0;
        for (i, &run) in cumulative.iter().enumerate() {
            let opt_step = self.cumulative_at(i + 1) - self.cumulative_at(i);
            acc += ((run - prev) - opt_step).max(0.0);
            prev = run;
            out.push(acc);
        }
        out
    }

    /// Final clamped cumulative regret of an online run (0.0 for an empty
    /// run); see [`OptSchedule::regret_series`].
    pub fn regret_of(&self, cumulative: &[f64]) -> f64 {
        self.regret_series(cumulative)
            .last()
            .copied()
            .unwrap_or(0.0)
    }
}

/// Compute the optimal schedule for `workload` restricted to the candidates
/// of `partition`, starting from `initial`.
pub fn compute_optimal<E: TuningEnv>(
    env: &E,
    workload: &[Statement],
    partition: &Partition,
    initial: &IndexSet,
) -> OptSchedule {
    optimal_with(env, workload, partition, initial, min_plus_delta)
}

/// [`compute_optimal`] with the DP step `transform(create, drop, opt)`,
/// which returns `min_X opt[X] + δ(X, Y)` and its argmin for every `Y`.
fn optimal_with<E: TuningEnv>(
    env: &E,
    workload: &[Statement],
    partition: &Partition,
    initial: &IndexSet,
    transform: impl Fn(&[f64], &[f64], &[f64]) -> (Vec<f64>, Vec<usize>),
) -> OptSchedule {
    let n = workload.len();
    let all_candidates: IndexSet = IndexSet::from_iter(partition.iter().flatten().copied());

    // Pre-compute, for every statement, the cost of every configuration within
    // each part (through one IBG per statement) and the empty-set cost.
    // costs[k][i][mask] = cost(q_{i+1}, set(mask) within part k).
    let mut costs: Vec<Vec<Vec<f64>>> = partition
        .iter()
        .map(|part| vec![vec![0.0; 1 << part.len()]; n])
        .collect();
    let mut empty_costs = vec![0.0; n];
    for (i, stmt) in workload.iter().enumerate() {
        let ibg = IndexBenefitGraph::build(all_candidates.clone(), |cfg| env.whatif(stmt, cfg));
        empty_costs[i] = ibg.cost(&IndexSet::empty());
        for (k, part) in partition.iter().enumerate() {
            for (mask, slot) in costs[k][i].iter_mut().enumerate() {
                *slot = ibg.cost(&set_of(part, mask));
            }
        }
    }

    // Per-part DP.
    let mut per_part_best_prefix: Vec<Vec<f64>> = Vec::with_capacity(partition.len());
    let mut per_part_schedule: Vec<Vec<usize>> = Vec::with_capacity(partition.len());
    for (k, part) in partition.iter().enumerate() {
        let size = 1usize << part.len();
        let create: Vec<f64> = part.iter().map(|&id| env.create_cost(id)).collect();
        let drop: Vec<f64> = part.iter().map(|&id| env.drop_cost(id)).collect();
        let initial_mask = mask_of(part, initial);

        let mut opt = vec![f64::INFINITY; size];
        opt[initial_mask] = 0.0;
        // pred[i][y] = best predecessor configuration before statement i.
        let mut pred: Vec<Vec<usize>> = Vec::with_capacity(n);
        let mut best_prefix = vec![0.0; n];
        for i in 0..n {
            let (mut next, arg) = transform(&create, &drop, &opt);
            for (v, c) in next.iter_mut().zip(&costs[k][i]) {
                *v += c;
            }
            pred.push(arg);
            opt = next;
            best_prefix[i] = opt.iter().copied().fold(f64::INFINITY, f64::min);
        }
        // Backtrack the full-workload optimal path.
        let mut schedule = vec![0usize; n];
        if n > 0 {
            let mut y = (0..size)
                .min_by(|&a, &b| opt[a].partial_cmp(&opt[b]).unwrap())
                .unwrap_or(initial_mask);
            for i in (0..n).rev() {
                schedule[i] = y;
                y = pred[i][y];
            }
        }
        per_part_best_prefix.push(best_prefix);
        per_part_schedule.push(schedule);
    }

    // Combine parts.
    let k_parts = partition.len().max(1);
    let mut cumulative = vec![0.0; n];
    let mut empty_prefix = 0.0;
    for i in 0..n {
        empty_prefix += empty_costs[i];
        let sum_parts: f64 = per_part_best_prefix.iter().map(|v| v[i]).sum();
        cumulative[i] = if partition.is_empty() {
            empty_prefix
        } else {
            sum_parts - (k_parts as f64 - 1.0) * empty_prefix
        };
    }

    let schedule: Vec<IndexSet> = (0..n)
        .map(|i| {
            partition
                .iter()
                .enumerate()
                .fold(IndexSet::empty(), |cfg, (k, part)| {
                    cfg.union(&set_of(part, per_part_schedule[k][i]))
                })
        })
        .collect();

    // Derive create/drop events.
    let mut creations = Vec::new();
    let mut drops = Vec::new();
    let mut previous = initial.clone();
    for (i, cfg) in schedule.iter().enumerate() {
        for id in cfg.difference(&previous).iter() {
            creations.push((i + 1, id));
        }
        for id in previous.difference(cfg).iter() {
            drops.push((i + 1, id));
        }
        previous = cfg.clone();
    }

    let total = cumulative.last().copied().unwrap_or(0.0);
    OptSchedule {
        schedule,
        cumulative,
        total,
        creations,
        drops,
    }
}

/// Build the "prescient DBA" feedback stream `V_GOOD` of Figure 9: a positive
/// vote for an index at the position where OPT creates it and a negative vote
/// where OPT drops it.  Use [`FeedbackStream::mirrored`] to obtain `V_BAD`.
pub fn good_feedback_stream(opt: &OptSchedule) -> FeedbackStream {
    let mut stream = FeedbackStream::empty();
    for &(pos, id) in &opt.creations {
        stream.add(pos, IndexSet::single(id), IndexSet::empty());
    }
    for &(pos, id) in &opt.drops {
        stream.add(pos, IndexSet::empty(), IndexSet::single(id));
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfit_core::env::{mock_statement, MockEnv};
    use wfit_core::evaluator::total_work_of_schedule;
    use wfit_core::hypercube::delta;

    /// The `O(4^k)` DP step the kernel replaced: for every `y`, scan every
    /// finite `x` in ascending order.
    fn scan(create: &[f64], drop: &[f64], opt: &[f64]) -> (Vec<f64>, Vec<usize>) {
        (0..opt.len())
            .map(|y| {
                let mut best = f64::INFINITY;
                let mut best_x = y;
                for (x, &w) in opt.iter().enumerate() {
                    if w.is_infinite() {
                        continue;
                    }
                    let v = w + delta(create, drop, x, y);
                    if v < best {
                        best = v;
                        best_x = x;
                    }
                }
                (best, best_x)
            })
            .unzip()
    }

    /// Seeded splitmix64 draws.
    struct Draws(u64);

    impl Draws {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Values with exact ties and zeros whose sums round.
    const GRID: [f64; 9] = [0.0, 0.1, 0.2, 0.3, 0.7, 1.1, 2.5, 3.3, 10.1];

    /// A random workload over 1–3 parts of 1–5 indexes (at most 9 in all):
    /// continuous values (`mix` 0), values from [`GRID`] (1), or grid
    /// values where statement costs ignore a random set of indexes, so
    /// states that differ only in those tie (2).
    fn random_workload(seed: u64, mix: usize) -> (MockEnv, Vec<Statement>, Partition, IndexSet) {
        let mut draw = Draws(seed);
        let grid = |draw: &mut Draws| GRID[draw.below(GRID.len())];
        let mut partition: Partition = Vec::new();
        let mut ids = 0u32;
        for _ in 0..1 + draw.below(3) {
            let len = (1 + draw.below(5)).min(9 - ids as usize);
            if len > 0 {
                partition.push((ids..ids + len as u32).map(IndexId).collect());
                ids += len as u32;
            }
        }
        let all: Vec<IndexId> = partition.iter().flatten().copied().collect();
        let env = MockEnv::new(0.0, 0.0);
        for &id in &all {
            let (create, drop) = if mix == 0 {
                (500.0 * draw.unit(), 50.0 * draw.unit())
            } else {
                (grid(&mut draw), grid(&mut draw))
            };
            env.set_create_cost(id, create);
            env.set_drop_cost(id, drop);
        }
        let used = draw.below(1 << all.len());
        let workload: Vec<Statement> = (0..6 + draw.below(10))
            .map(|j| {
                let q = mock_statement(j as u32 + 1);
                let table: Vec<f64> = (0..1usize << all.len())
                    .map(|_| match mix {
                        0 => 1000.0 * draw.unit(),
                        _ => 100.0 * grid(&mut draw),
                    })
                    .collect();
                for mask in 0..1usize << all.len() {
                    let cost = if mix == 2 {
                        table[mask & used]
                    } else {
                        table[mask]
                    };
                    env.set_cost(&q, &set_of(&all, mask), cost);
                }
                q
            })
            .collect();
        let initial = set_of(&all, draw.below(1 << all.len()));
        (env, workload, partition, initial)
    }

    #[test]
    fn kernel_dp_matches_the_scan_dp() {
        for seed in 0..24 {
            for mix in 0..3 {
                let (env, workload, partition, initial) = random_workload(seed, mix);
                let fast = compute_optimal(&env, &workload, &partition, &initial);
                let slow = optimal_with(&env, &workload, &partition, &initial, scan);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let case = format!("seed {seed}, mix {mix}, partition {partition:?}");
                assert_eq!(fast.schedule, slow.schedule, "{case}");
                assert_eq!(fast.creations, slow.creations, "{case}");
                assert_eq!(fast.drops, slow.drops, "{case}");
                assert_eq!(bits(&fast.cumulative), bits(&slow.cumulative), "{case}");
                assert_eq!(fast.total.to_bits(), slow.total.to_bits(), "{case}");
            }
        }
    }

    fn scripted() -> (MockEnv, Vec<Statement>, IndexId) {
        let env = MockEnv::new(30.0, 0.0);
        let a = IndexId(0);
        // Ten queries where the index saves 45 each, then ten updates where it
        // costs 20 each.
        let mut workload = Vec::new();
        for i in 0..20u32 {
            let q = mock_statement(i + 1);
            if i < 10 {
                env.set_cost(&q, &IndexSet::empty(), 50.0);
                env.set_cost(&q, &IndexSet::single(a), 5.0);
            } else {
                env.set_cost(&q, &IndexSet::empty(), 5.0);
                env.set_cost(&q, &IndexSet::single(a), 25.0);
            }
            workload.push(q);
        }
        (env, workload, a)
    }

    #[test]
    fn optimal_schedule_creates_then_drops() {
        let (env, workload, a) = scripted();
        let opt = compute_optimal(&env, &workload, &vec![vec![a]], &IndexSet::empty());
        // The index must be used during the query phase and dropped for the
        // update phase.
        assert!(opt.schedule[2].contains(a));
        assert!(!opt.schedule[15].contains(a));
        assert_eq!(opt.creations.iter().filter(|(_, id)| *id == a).count(), 1);
        assert_eq!(opt.drops.iter().filter(|(_, id)| *id == a).count(), 1);
        // Manual optimum: create at 1 (30) + 10×5 + drop (0) + 10×5 = 130.
        assert!((opt.total - 130.0).abs() < 1e-9, "{}", opt.total);
    }

    #[test]
    fn schedule_total_matches_replay() {
        let (env, workload, a) = scripted();
        let opt = compute_optimal(&env, &workload, &vec![vec![a]], &IndexSet::empty());
        let replay = total_work_of_schedule(&env, &workload, &opt.schedule, &IndexSet::empty());
        assert!((replay[replay.len() - 1] - opt.total).abs() < 1e-6);
    }

    #[test]
    fn cumulative_prefix_optima_are_not_greater_than_final_path_prefixes() {
        let (env, workload, a) = scripted();
        let opt = compute_optimal(&env, &workload, &vec![vec![a]], &IndexSet::empty());
        let replay = total_work_of_schedule(&env, &workload, &opt.schedule, &IndexSet::empty());
        for (prefix_opt, prefix_replay) in opt.cumulative.iter().zip(&replay) {
            assert!(*prefix_opt <= prefix_replay + 1e-6);
        }
        // The cumulative curve is non-decreasing.
        for w in opt.cumulative.windows(2) {
            assert!(w[1] >= w[0] - 1e-9);
        }
    }

    #[test]
    fn optimum_is_lower_bound_for_any_online_schedule() {
        let (env, workload, a) = scripted();
        let opt = compute_optimal(&env, &workload, &vec![vec![a]], &IndexSet::empty());
        // Never indexing.
        let never: Vec<IndexSet> = workload.iter().map(|_| IndexSet::empty()).collect();
        let never_cost = total_work_of_schedule(&env, &workload, &never, &IndexSet::empty());
        assert!(opt.total <= never_cost[never_cost.len() - 1] + 1e-9);
        // Always indexing.
        let always: Vec<IndexSet> = workload.iter().map(|_| IndexSet::single(a)).collect();
        let always_cost = total_work_of_schedule(&env, &workload, &always, &IndexSet::empty());
        assert!(opt.total <= always_cost[always_cost.len() - 1] + 1e-9);
    }

    #[test]
    fn good_feedback_votes_follow_the_schedule() {
        let (env, workload, a) = scripted();
        let opt = compute_optimal(&env, &workload, &vec![vec![a]], &IndexSet::empty());
        let stream = good_feedback_stream(&opt);
        assert_eq!(stream.len(), 2);
        let (create_pos, _) = opt.creations[0];
        let (p, n) = stream.at(create_pos).unwrap();
        assert!(p.contains(a));
        assert!(n.is_empty());
        let mirrored = stream.mirrored();
        let (p, n) = mirrored.at(create_pos).unwrap();
        assert!(p.is_empty());
        assert!(n.contains(a));
    }

    #[test]
    fn multi_part_decomposition_is_consistent() {
        // Two independent indices on two different statements: the two-part
        // optimum must equal the replayed cost of its own schedule.
        let env = MockEnv::new(10.0, 0.0);
        let a = IndexId(0);
        let b = IndexId(1);
        let mut workload = Vec::new();
        for i in 0..10u32 {
            let q = mock_statement(i + 1);
            let helped = if i % 2 == 0 { a } else { b };
            for mask in 0..4 {
                let cfg = set_of(&[a, b], mask);
                let cost = if cfg.contains(helped) { 2.0 } else { 20.0 };
                env.set_cost(&q, &cfg, cost);
            }
            workload.push(q);
        }
        let opt = compute_optimal(&env, &workload, &vec![vec![a], vec![b]], &IndexSet::empty());
        let replay = total_work_of_schedule(&env, &workload, &opt.schedule, &IndexSet::empty());
        let replayed = replay[replay.len() - 1];
        assert!(
            (replayed - opt.total).abs() < 1e-6,
            "{replayed} vs {}",
            opt.total
        );
        // Statement 9 (position 8, 0-based) favors a, statement 10 favors b;
        // the optimal schedule must have the matching index materialized when
        // the statement that needs it runs.
        assert!(opt.schedule[8].contains(a));
        assert!(opt.schedule[9].contains(b));
    }

    #[test]
    fn regret_series_is_monotone_and_bounds_the_raw_gap() {
        let (env, workload, a) = scripted();
        let opt = compute_optimal(&env, &workload, &vec![vec![a]], &IndexSet::empty());
        // Score the never-index schedule against OPT.
        let never: Vec<IndexSet> = workload.iter().map(|_| IndexSet::empty()).collect();
        let series = total_work_of_schedule(&env, &workload, &never, &IndexSet::empty());
        let regret = opt.regret_series(&series);
        assert_eq!(regret.len(), series.len());
        for w in regret.windows(2) {
            assert!(w[1] >= w[0], "regret series must be monotone: {w:?}");
        }
        let final_regret = opt.regret_of(&series);
        assert!(final_regret >= series[series.len() - 1] - opt.total - 1e-9);
        assert!(final_regret > 0.0, "never-indexing has positive regret");
        // OPT replayed against itself has (clamped) regret equal to the sum of
        // positive step mismatches; the raw final gap is zero.
        let self_regret = opt.regret_of(&opt.cumulative);
        assert!(self_regret.abs() < 1e-9, "OPT vs OPT regret: {self_regret}");
        // Empty run.
        assert_eq!(opt.regret_of(&[]), 0.0);
    }

    #[test]
    fn empty_workload_and_empty_partition() {
        let env = MockEnv::new(1.0, 1.0);
        let opt = compute_optimal(&env, &[], &vec![vec![IndexId(0)]], &IndexSet::empty());
        assert_eq!(opt.total, 0.0);
        assert!(opt.schedule.is_empty());
        let q = mock_statement(1);
        env.set_cost(&q, &IndexSet::empty(), 3.0);
        let opt = compute_optimal(&env, &[q], &Vec::new(), &IndexSet::empty());
        assert!((opt.total - 3.0).abs() < 1e-9);
    }
}
