//! Property-based tests of the core invariants claimed by the paper.

use proptest::prelude::*;
use simdb::catalog::CatalogBuilder;
use simdb::database::Database;
use simdb::index::{IndexId, IndexSet};
use simdb::types::DataType;
use wfit::core::env::{mock_statement, MockEnv, TuningEnv};
use wfit::core::evaluator::{total_work_of_schedule, FeedbackStream};
use wfit::core::hypercube;
use wfit::core::wfa::WfaInstance;
use wfit::core::TuningSession;
use wfit::{IndexAdvisor, Wfit, WfitConfig};

/// Build an additive (fully independent) scripted environment: `n_indexes`
/// indices, `n_stmts` statements, index `i` saves `savings[i][j]` on
/// statement `j` (possibly negative).
fn additive_env(
    savings: &[Vec<f64>],
    base: f64,
    create: f64,
) -> (MockEnv, Vec<simdb::query::Statement>, Vec<IndexId>) {
    let env = MockEnv::new(create, 0.5);
    let n_indexes = savings.len();
    let ids: Vec<IndexId> = (0..n_indexes as u32).map(IndexId).collect();
    let n_stmts = savings[0].len();
    let mut stmts = Vec::new();
    for j in 0..n_stmts {
        let q = mock_statement(j as u32 + 1);
        for mask in 0..1usize << n_indexes {
            let cfg = hypercube::set_of(&ids, mask);
            let mut cost = base;
            for (i, s) in savings.iter().enumerate() {
                if cfg.contains(ids[i]) {
                    cost -= s[j];
                }
            }
            env.set_cost(&q, &cfg, cost.max(0.0));
        }
        stmts.push(q);
    }
    (env, stmts, ids)
}

/// WFA⁺: WFIT over a fixed `partition`, from an empty initial set.
fn fixed(env: &MockEnv, partition: Vec<Vec<IndexId>>) -> Wfit<&MockEnv> {
    Wfit::with_fixed_partition(env, WfitConfig::default(), partition, IndexSet::empty())
}

fn savings_strategy(n_indexes: usize, n_stmts: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(
        proptest::collection::vec(-20.0f64..40.0, n_stmts),
        n_indexes,
    )
}

/// A database over a large and a small table with eight real indexes, so
/// their create costs span orders of magnitude.
fn catalog_indexes() -> (Database, Vec<IndexId>) {
    let mut b = CatalogBuilder::new();
    b.table("big")
        .rows(6_000_000.0)
        .column("a", DataType::Integer, 1_500_000.0)
        .column("b", DataType::Decimal, 900_000.0)
        .column("c", DataType::Text, 500.0)
        .finish();
    b.table("small")
        .rows(10_000.0)
        .column("x", DataType::Integer, 10_000.0)
        .column("y", DataType::Integer, 100.0)
        .finish();
    let db = Database::new(b.build());
    let defs: [(&str, &[&str]); 8] = [
        ("big", &["a"]),
        ("small", &["x"]),
        ("big", &["b"]),
        ("small", &["y"]),
        ("big", &["c"]),
        ("big", &["a", "b"]),
        ("small", &["x", "y"]),
        ("big", &["c", "a"]),
    ];
    let ids = defs
        .iter()
        .map(|(table, columns)| db.define_index(table, columns).unwrap())
        .collect();
    (db, ids)
}

/// δ's laws over `env`'s sets `set_of(ids, mask)`: creating one index costs
/// more than dropping it, and the triangle inequality, identity,
/// non-negativity and Lemma A.2's cyclic identity hold on the three masks.
fn assert_delta_laws(env: &impl TuningEnv, ids: &[IndexId], masks: &[usize]) {
    let d = |a: usize, b: usize| {
        env.transition_cost(&hypercube::set_of(ids, a), &hypercube::set_of(ids, b))
    };
    for i in 0..ids.len() {
        assert!(d(0, 1 << i) > d(1 << i, 0), "asymmetry: create > drop");
    }
    let (x, y, z) = (masks[0], masks[1], masks[2]);
    let via = d(x, z) + d(z, y);
    assert!(d(x, y) <= via + 1e-12 * via.max(1.0), "triangle inequality");
    assert_eq!(d(x, x), 0.0);
    assert!(d(x, y) >= 0.0);
    let forward = d(x, y) + d(y, z) + d(z, x);
    let backward = d(x, z) + d(z, y) + d(y, x);
    assert!(
        (forward - backward).abs() <= 1e-12 * forward.max(1.0),
        "Lemma A.2"
    );
}

/// `hypercube::delta` over `create` and `drop` agrees with `env`'s
/// `TuningEnv::transition_cost` on the images of `from` and `to`.
fn assert_delta_matches(
    env: &impl TuningEnv,
    ids: &[IndexId],
    create: &[f64],
    drop: &[f64],
    from: usize,
    to: usize,
) {
    let fast = hypercube::delta(create, drop, from, to);
    let reference = env.transition_cost(&hypercube::set_of(ids, from), &hypercube::set_of(ids, to));
    assert!(
        (fast - reference).abs() <= 1e-9 * fast.abs().max(reference.abs()),
        "δ({from:#b}, {to:#b}) = {fast} vs transition_cost {reference}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 4.2: WFA⁺ over a stable (here: fully independent) partition
    /// makes the same recommendations as a single WFA over all candidates.
    #[test]
    fn theorem_4_2_stable_partition_equivalence(savings in savings_strategy(3, 6)) {
        let (env, stmts, ids) = additive_env(&savings, 200.0, 30.0);
        let mut split = fixed(&env, ids.iter().map(|&i| vec![i]).collect());
        let mut joint = fixed(&env, vec![ids.clone()]);
        for q in &stmts {
            split.analyze_query(q);
            joint.analyze_query(q);
            prop_assert_eq!(split.recommend(), joint.recommend());
        }
    }

    /// The session's cumulative total work equals the independent
    /// fixed-schedule scorer's over the advisor's own adopted schedule
    /// (accounting consistency).
    #[test]
    fn session_total_work_matches_schedule_replay(savings in savings_strategy(2, 6)) {
        let (env, stmts, ids) = additive_env(&savings, 120.0, 20.0);
        let parts: Vec<Vec<IndexId>> = ids.iter().map(|&i| vec![i]).collect();
        let mut session = TuningSession::new(&env, fixed(&env, parts.clone()));
        session.replay(&stmts, &FeedbackStream::empty());

        // Reconstruct the adopted schedule by replaying with a fresh advisor.
        let mut advisor = fixed(&env, parts);
        let mut schedule = Vec::new();
        for q in &stmts {
            advisor.analyze_query(q);
            schedule.push(advisor.recommend());
        }
        let replay = total_work_of_schedule(&env, &stmts, &schedule, &IndexSet::empty());
        // Both add each statement's cost and transition once, so every
        // prefix agrees to the bit.
        let bits = |series: &[f64]| series.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&replay), bits(session.cost_series()));
    }

    /// Consistency (Section 3.1): immediately after feedback, every positively
    /// voted index is recommended and no negatively voted index is.
    #[test]
    fn feedback_consistency(
        savings in savings_strategy(3, 4),
        pos_mask in 0usize..8,
        neg_mask in 0usize..8,
    ) {
        let (env, stmts, ids) = additive_env(&savings, 100.0, 15.0);
        // Make the vote sets disjoint (negative loses ties).
        let positive = hypercube::set_of(&ids, pos_mask & !neg_mask);
        let negative = hypercube::set_of(&ids, neg_mask);
        let mut advisor = fixed(&env, ids.iter().map(|&i| vec![i]).collect());
        for q in &stmts {
            advisor.analyze_query(q);
            advisor.feedback(&positive, &negative);
            let rec = advisor.recommend();
            prop_assert!(positive.is_subset_of(&rec));
            prop_assert!(rec.intersection(&negative).is_empty());
        }
    }

    /// δ is asymmetric but satisfies the triangle inequality and the cyclic
    /// identity of Lemma A.2, on scripted costs and on real catalog indexes.
    #[test]
    fn transition_cost_properties(
        creates in proptest::collection::vec(1.0f64..100.0, 4),
        masks in proptest::collection::vec(0usize..16, 3),
    ) {
        let env = MockEnv::new(0.0, 0.0);
        let ids: Vec<IndexId> = (0..4u32).map(IndexId).collect();
        for (i, c) in creates.iter().enumerate() {
            env.set_create_cost(ids[i], *c);
            env.set_drop_cost(ids[i], c / 10.0);
        }
        assert_delta_laws(&env, &ids, &masks);
        let (db, real) = catalog_indexes();
        assert_delta_laws(&db, &real[..4], &masks);
    }

    /// WFA's and OPT's bitmask `δ` agrees with the `TuningEnv::transition_cost`
    /// default the `totWork` accounting charges, on the `set_of` images of
    /// the masks, over scripted costs and over a `Database`'s own create and
    /// drop costs of real catalog indexes (the two sum in different orders,
    /// hence the relative tolerance).
    #[test]
    fn hypercube_delta_matches_transition_cost(
        create in proptest::collection::vec(0.0f64..1e6, 8),
        drop in proptest::collection::vec(0.0f64..1e4, 8),
        from in 0usize..256,
        to in 0usize..256,
    ) {
        let env = MockEnv::new(0.0, 0.0);
        let ids: Vec<IndexId> = (0..8u32).map(IndexId).collect();
        for (i, &id) in ids.iter().enumerate() {
            env.set_create_cost(id, create[i]);
            env.set_drop_cost(id, drop[i]);
        }
        assert_delta_matches(&env, &ids, &create, &drop, from, to);

        let (db, real) = catalog_indexes();
        let create: Vec<f64> = real.iter().map(|&id| db.create_cost(id)).collect();
        let drop: Vec<f64> = real.iter().map(|&id| db.drop_cost(id)).collect();
        assert_delta_matches(&db, &real, &create, &drop, from, to);
    }

    /// The recommendation of a WFA instance is always drawn from its own
    /// candidate set, regardless of the workload.
    #[test]
    fn recommendations_stay_within_candidates(savings in savings_strategy(3, 5)) {
        let (env, stmts, ids) = additive_env(&savings, 90.0, 10.0);
        let candidate_set = IndexSet::from_iter(ids.iter().copied());
        let mut advisor = fixed(&env, vec![ids]);
        for q in &stmts {
            advisor.analyze_query(q);
            prop_assert!(advisor.recommend().is_subset_of(&candidate_set));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Lemma A.1: every statement raises every work-function value by at
    /// least the statement's cheapest cost,
    /// `w_n(S) ≥ w_{n−1}(S) + min_X cost(q_n, X)`, on parts of up to 8
    /// indexes from any initial set.  Votes are left out: feedback raises
    /// `w` and can break the δ-Lipschitz step the lemma rests on.  On a
    /// coarse grid, costs tie exactly and include zeros.
    #[test]
    fn work_function_is_monotone(
        k in 0usize..=8,
        transitions in proptest::collection::vec(0.0f64..500.0, 16),
        initial in 0usize..256,
        n_stmts in 1usize..=8,
        costs in proptest::collection::vec(0.0f64..1000.0, 8 << 8),
        coarse in 0usize..2,
    ) {
        let size = 1usize << k;
        let ids: Vec<IndexId> = (0..k as u32).map(IndexId).collect();
        let (create, drop) = transitions.split_at(8);
        let mut wfa = WfaInstance::new(
            ids.clone(),
            create[..k].to_vec(),
            drop[..k].to_vec(),
            &hypercube::set_of(&ids, initial % size),
        );
        for q in costs.chunks(256).take(n_stmts) {
            let q: Vec<f64> = q[..size]
                .iter()
                .map(|&c| if coarse == 1 { (c / 250.0).floor() * 250.0 } else { c })
                .collect();
            let cheapest = q.iter().copied().fold(f64::INFINITY, f64::min);
            let before: Vec<f64> = wfa.work_values().map(|(_, v)| v).collect();
            wfa.analyze_query_with_costs(&q);
            for (s, ((_, after), b)) in wfa.work_values().zip(before).enumerate() {
                let bound = b + cheapest;
                prop_assert!(
                    after >= bound - 1e-9 * bound.abs(),
                    "k {k}, S {s}: w_n {after} < w_(n-1) {b} + min cost {cheapest}"
                );
            }
        }
    }
}

/// OPT against brute force: an oracle independent of both the kernel DP
/// and the scan DP it replaced.
mod opt_properties {
    use super::*;
    use advisors::compute_optimal;

    /// Creation and drop costs, 0 included.
    const TRANSITIONS: [f64; 6] = [0.0, 0.5, 2.5, 10.0, 30.0, 75.0];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// On tiny additive workloads (1–2 parts of at most 3 indexes, at
        /// most 5 statements, at most 2^12 schedules) OPT's total is the
        /// least total work of every schedule, and OPT's own schedule
        /// replays to its total.
        #[test]
        fn opt_equals_brute_force(
            sizes in proptest::collection::vec(0usize..=3, 2),
            n_stmts in 1usize..=5,
            savings in savings_strategy(6, 5),
            transitions in proptest::collection::vec(0usize..TRANSITIONS.len(), 12),
            initial in 0usize..64,
        ) {
            let n = sizes[0].max(1) + sizes[1];
            let n_stmts = n_stmts.min(12 / n);
            let savings: Vec<Vec<f64>> =
                savings[..n].iter().map(|s| s[..n_stmts].to_vec()).collect();
            // At most six savings below 40 each stay under the base of 250,
            // so no cost is clamped at 0 and every partition is stable.
            let (env, stmts, ids) = additive_env(&savings, 250.0, 0.0);
            for (i, &id) in ids.iter().enumerate() {
                env.set_create_cost(id, TRANSITIONS[transitions[2 * i]]);
                env.set_drop_cost(id, TRANSITIONS[transitions[2 * i + 1]]);
            }
            let (first, second) = ids.split_at(sizes[0].max(1));
            let partition: Vec<Vec<IndexId>> = [first, second]
                .iter()
                .filter(|part| !part.is_empty())
                .map(|part| part.to_vec())
                .collect();
            let initial = hypercube::set_of(&ids, initial % (1 << n));
            let opt = compute_optimal(&env, &stmts, &partition, &initial);

            let work = |schedule: &[IndexSet]| {
                total_work_of_schedule(&env, &stmts, schedule, &initial)[n_stmts - 1]
            };
            let configs = 1usize << n;
            let best = (0..configs.pow(n_stmts as u32))
                .map(|code| {
                    let schedule: Vec<IndexSet> = (0..n_stmts)
                        .map(|j| hypercube::set_of(&ids, code / configs.pow(j as u32) % configs))
                        .collect();
                    work(&schedule)
                })
                .fold(f64::INFINITY, f64::min);
            prop_assert!(
                (opt.total - best).abs() <= 1e-9 * best.abs(),
                "OPT {} vs brute force {best} over {partition:?}",
                opt.total
            );
            let replay = work(&opt.schedule);
            prop_assert!(
                (replay - opt.total).abs() <= 1e-9 * opt.total.abs(),
                "OPT's schedule replays to {replay}, OPT reports {}",
                opt.total
            );
        }
    }
}

/// Properties of the index benefit graph and of stable partitions (the IBG
/// invariants of Schnaitter et al. that WFIT's statistics maintenance
/// relies on).
mod ibg_properties {
    use super::*;
    use ibg::partition::{normalize, Partition};
    use ibg::IndexBenefitGraph;
    use simdb::query::{build, PredicateKind};

    fn database() -> (Database, Vec<IndexId>) {
        let mut b = CatalogBuilder::new();
        b.table("t")
            .rows(3_000_000.0)
            .column("a", DataType::Integer, 500_000.0)
            .column("b", DataType::Integer, 120_000.0)
            .column("c", DataType::Integer, 9_000.0)
            .column("d", DataType::Integer, 32.0)
            .finish();
        let db = Database::new(b.build());
        let t = db.catalog().table_by_name("t").unwrap();
        let cols: Vec<simdb::ColumnId> = db.catalog().table(t).columns.clone();
        let i1 = db.define_index_on(t, vec![cols[0]]);
        let i2 = db.define_index_on(t, vec![cols[1]]);
        let i3 = db.define_index_on(t, vec![cols[2]]);
        let i4 = db.define_index_on(t, vec![cols[0], cols[1]]);
        (db, vec![i1, i2, i3, i4])
    }

    fn statement(db: &Database, sel_a: f64, sel_b: f64, sel_c: f64) -> simdb::query::Statement {
        let t = db.catalog().table_by_name("t").unwrap();
        let cols: Vec<simdb::ColumnId> = db.catalog().table(t).columns.clone();
        build::select()
            .table(t)
            .predicate(t, cols[0], PredicateKind::Range, sel_a)
            .predicate(t, cols[1], PredicateKind::Range, sel_b)
            .predicate(t, cols[2], PredicateKind::Equality, sel_c)
            .output(cols[3])
            .build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// `cost(q, Y)` is monotone non-increasing as `Y` grows: adding
        /// indices can only help (or be ignored by) the optimizer.
        #[test]
        fn ibg_cost_is_monotone_non_increasing_in_y(
            sel_a in 1e-6f64..0.4,
            sel_b in 1e-6f64..0.4,
            sel_c in 1e-6f64..0.1,
            mask in 0usize..16,
            submask in 0usize..16,
        ) {
            let (db, idx) = database();
            let stmt = statement(&db, sel_a, sel_b, sel_c);
            let ibg = IndexBenefitGraph::build(
                IndexSet::from_iter(idx.iter().copied()),
                |cfg| db.whatif_cost(&stmt, cfg),
            );
            let small = hypercube::set_of(&idx, mask & submask);
            let large = hypercube::set_of(&idx, mask);
            prop_assert!(small.is_subset_of(&large));
            prop_assert!(ibg.cost(&large) <= ibg.cost(&small) + 1e-9);
            prop_assert!(ibg.cost(&large) > 0.0);
        }

        /// The plan for `Y` only uses indices from `Y`, and the used set is a
        /// cost fixpoint: `cost(used(Y)) == cost(Y)`.
        #[test]
        fn ibg_used_is_subset_and_cost_fixpoint(
            sel_a in 1e-6f64..0.4,
            sel_b in 1e-6f64..0.4,
            sel_c in 1e-6f64..0.1,
            mask in 0usize..16,
        ) {
            let (db, idx) = database();
            let stmt = statement(&db, sel_a, sel_b, sel_c);
            let ibg = IndexBenefitGraph::build(
                IndexSet::from_iter(idx.iter().copied()),
                |cfg| db.whatif_cost(&stmt, cfg),
            );
            let y = hypercube::set_of(&idx, mask);
            let used = ibg.used(&y);
            prop_assert!(used.is_subset_of(&y), "used {used} ⊄ {y}");
            prop_assert!((ibg.cost(&used) - ibg.cost(&y)).abs() < 1e-9);
            // The same holds at every node the construction materialized.
            for node in ibg.nodes() {
                prop_assert!(node.used.is_subset_of(&node.config));
                prop_assert!((ibg.cost(&node.used) - node.cost).abs() < 1e-6);
            }
        }

        /// `normalize` is idempotent on partitions, and its output is in
        /// normal form (sorted, deduplicated, no empty parts).
        #[test]
        fn normalize_is_idempotent(
            raw in proptest::collection::vec(
                proptest::collection::vec(0u32..12, 4),
                5,
            ),
            part_count in 0usize..6,
            part_sizes in proptest::collection::vec(0usize..5, 5),
        ) {
            // The proptest stub generates fixed-shape collections; carve a
            // ragged partition (including empty parts) out of the 5×4 block.
            let partition: Partition = raw
                .iter()
                .zip(&part_sizes)
                .take(part_count)
                .map(|(part, &size)| {
                    part.iter().take(size).map(|&i| IndexId(i)).collect()
                })
                .collect();
            let once = normalize(partition.clone());
            let twice = normalize(once.clone());
            prop_assert_eq!(&once, &twice);
            for part in &once {
                prop_assert!(!part.is_empty());
                prop_assert!(part.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
            }
            prop_assert!(once.windows(2).all(|w| w[0] <= w[1]), "parts ordered");
        }
    }
}

/// Properties of the bounded shared what-if cache and its statistics
/// counters (the service hot path).
mod cache_properties {
    use super::*;
    use simdb::cache::{CacheConfig, SharedWhatIfCache};
    use simdb::optimizer::PlanCost;
    use simdb::query::{build, PredicateKind};
    use simdb::whatif::WhatIfStats;

    fn database() -> (Database, Vec<IndexId>) {
        let mut b = CatalogBuilder::new();
        b.table("t")
            .rows(800_000.0)
            .column("a", DataType::Integer, 150_000.0)
            .column("b", DataType::Integer, 40_000.0)
            .column("c", DataType::Integer, 512.0)
            .finish();
        let db = Database::new(b.build());
        let t = db.catalog().table_by_name("t").unwrap();
        let cols: Vec<simdb::ColumnId> = db.catalog().table(t).columns.clone();
        let i1 = db.define_index_on(t, vec![cols[0]]);
        let i2 = db.define_index_on(t, vec![cols[1]]);
        let i3 = db.define_index_on(t, vec![cols[0], cols[1]]);
        (db, vec![i1, i2, i3])
    }

    fn statement(db: &Database, sel_a: f64, sel_b: f64) -> simdb::query::Statement {
        let t = db.catalog().table_by_name("t").unwrap();
        let cols: Vec<simdb::ColumnId> = db.catalog().table(t).columns.clone();
        build::select()
            .table(t)
            .predicate(t, cols[0], PredicateKind::Range, sel_a)
            .predicate(t, cols[1], PredicateKind::Range, sel_b)
            .output(cols[2])
            .build()
    }

    fn synthetic_plan(fingerprint: u64, mask: usize) -> PlanCost {
        PlanCost {
            total: (fingerprint * 31 + mask as u64) as f64,
            used_indexes: IndexSet::empty(),
            description: String::new(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Satellite invariant: a bounded cache never holds more entries
        /// than its capacity — not at the end of a run, and not at any
        /// intermediate point — and its counters always reconcile.
        #[test]
        fn bounded_cache_never_exceeds_capacity(
            capacity in 1usize..48,
            fingerprints in proptest::collection::vec(0u64..24, 150),
            masks in proptest::collection::vec(0usize..8, 150),
        ) {
            let cache = SharedWhatIfCache::with_config(CacheConfig::bounded(capacity));
            let (_, idx) = database();
            for (&f, &mask) in fingerprints.iter().zip(&masks) {
                let got = cache.get_or_compute(f, &hypercube::set_of(&idx, mask), || synthetic_plan(f, mask));
                // Cached or freshly computed, the value is the pure function
                // of the key.
                prop_assert_eq!(got.total.to_bits(), synthetic_plan(f, mask).total.to_bits());
                prop_assert!(
                    cache.len() <= capacity,
                    "len {} > capacity {capacity}",
                    cache.len()
                );
            }
            let stats = cache.stats();
            prop_assert_eq!(stats.requests, 150);
            prop_assert_eq!(stats.optimizer_calls + stats.cache_hits, stats.requests);
            prop_assert!(stats.entries as usize <= capacity);
            // Every eviction was preceded by an insert of the evicted entry,
            // and the resident entries are exactly inserts minus evictions.
            prop_assert!(stats.evictions <= stats.optimizer_calls);
            prop_assert_eq!(stats.optimizer_calls - stats.evictions, stats.entries);
        }

        /// Satellite invariant: eviction followed by refill returns costs
        /// bit-identical to the `whatif_cost_uncached` oracle — a bounded
        /// cache can change *when* the optimizer runs, never *what* it
        /// answers.
        #[test]
        fn evicted_entries_refill_to_identical_costs(
            capacity in 1usize..10,
            sel_a in 1e-6f64..0.5,
            sel_b in 1e-6f64..0.5,
            stmt_picks in proptest::collection::vec(0usize..3, 90),
            masks in proptest::collection::vec(0usize..8, 90),
        ) {
            let (db, idx) = database();
            let stmts = [
                statement(&db, sel_a, sel_b),
                statement(&db, sel_a / 2.0, sel_b),
                statement(&db, sel_a, sel_b / 3.0),
            ];
            let cache = SharedWhatIfCache::with_config(CacheConfig::bounded(capacity));
            for (&pick, &mask) in stmt_picks.iter().zip(&masks) {
                let stmt = &stmts[pick];
                let config = hypercube::set_of(&idx, mask);
                let got = cache.get_or_compute(stmt.fingerprint, &config, || {
                    db.whatif_cost_uncached(stmt, &config)
                });
                let oracle = db.whatif_cost_uncached(stmt, &config);
                prop_assert_eq!(got.total.to_bits(), oracle.total.to_bits());
                prop_assert_eq!(&got.used_indexes, &oracle.used_indexes);
            }
            // With a working set of up to 24 keys and capacity < 10, the run
            // must actually have exercised the eviction path.
            prop_assert!(cache.stats().evictions > 0 || cache.distinct_statements() * 8 <= capacity);
        }

        /// Satellite invariant: `WhatIfStats::merge` is associative and
        /// commutative with `default()` as identity, so aggregating shard or
        /// tenant snapshots can never depend on order.
        #[test]
        fn whatif_stats_merge_is_associative_and_commutative(
            requests in proptest::collection::vec(0u64..10_000, 6),
            optimizer_calls in proptest::collection::vec(0u64..10_000, 6),
            cache_hits in proptest::collection::vec(0u64..10_000, 6),
            evictions in proptest::collection::vec(0u64..10_000, 6),
            entries in proptest::collection::vec(0u64..10_000, 6),
        ) {
            let shards: Vec<WhatIfStats> = (0..6)
                .map(|i| WhatIfStats {
                    requests: requests[i],
                    optimizer_calls: optimizer_calls[i],
                    cache_hits: cache_hits[i],
                    evictions: evictions[i],
                    entries: entries[i],
                })
                .collect();
            for a in &shards {
                prop_assert_eq!(a.merge(&WhatIfStats::default()), *a);
                for b in &shards {
                    prop_assert_eq!(a.merge(b), b.merge(a));
                    for c in &shards {
                        prop_assert_eq!(a.merge(b).merge(c), a.merge(&b.merge(c)));
                    }
                }
            }
            // Folding left and right over all shards agrees.
            let left = shards.iter().fold(WhatIfStats::default(), |acc, s| acc.merge(s));
            let right = shards.iter().rev().fold(WhatIfStats::default(), |acc, s| s.merge(&acc));
            prop_assert_eq!(left, right);
        }
    }
}

/// Property tests against the real simulated DBMS (fewer cases, heavier).
mod simdb_properties {
    use super::*;
    use simdb::query::{build, PredicateKind};

    fn database() -> (Database, Vec<IndexId>, simdb::TableId, Vec<simdb::ColumnId>) {
        let mut b = CatalogBuilder::new();
        b.table("t")
            .rows(1_000_000.0)
            .column("a", DataType::Integer, 250_000.0)
            .column("b", DataType::Integer, 50_000.0)
            .column("c", DataType::Integer, 64.0)
            .finish();
        let db = Database::new(b.build());
        let t = db.catalog().table_by_name("t").unwrap();
        let cols: Vec<simdb::ColumnId> = db.catalog().table(t).columns.clone();
        let i1 = db.define_index_on(t, vec![cols[0]]);
        let i2 = db.define_index_on(t, vec![cols[1]]);
        let i3 = db.define_index_on(t, vec![cols[0], cols[1]]);
        (db, vec![i1, i2, i3], t, cols)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Query costs are monotone non-increasing in the configuration and
        /// always positive.
        #[test]
        fn select_cost_monotone(sel_a in 1e-6f64..0.5, sel_b in 1e-6f64..0.5, mask in 0usize..8) {
            let (db, idx, t, cols) = database();
            let stmt = build::select()
                .table(t)
                .predicate(t, cols[0], PredicateKind::Range, sel_a)
                .predicate(t, cols[1], PredicateKind::Range, sel_b)
                .output(cols[2])
                .build();
            let subset = hypercube::set_of(&idx, mask);
            let full = IndexSet::from_iter(idx.iter().copied());
            let c_subset = db.cost(&stmt, &subset);
            let c_full = db.cost(&stmt, &full);
            prop_assert!(c_subset > 0.0);
            prop_assert!(c_full <= c_subset + 1e-9);
        }

        /// The IBG reproduces the optimizer's costs exactly for every subset.
        #[test]
        fn ibg_cost_exactness(sel_a in 1e-6f64..0.5, sel_b in 1e-6f64..0.5) {
            let (db, idx, t, cols) = database();
            let stmt = build::select()
                .table(t)
                .predicate(t, cols[0], PredicateKind::Range, sel_a)
                .predicate(t, cols[1], PredicateKind::Range, sel_b)
                .output(cols[2])
                .build();
            let relevant = IndexSet::from_iter(idx.iter().copied());
            let ibg = ibg::IndexBenefitGraph::build(relevant, |cfg| db.whatif_cost(&stmt, cfg));
            for mask in 0usize..8 {
                let cfg = hypercube::set_of(&idx, mask);
                prop_assert!((ibg.cost(&cfg) - db.cost(&stmt, &cfg)).abs() < 1e-6);
            }
        }

        /// Update statements never get cheaper when more indexes must be
        /// maintained on the modified column.
        #[test]
        fn update_maintenance_monotone(sel in 1e-6f64..0.01) {
            let (db, idx, t, cols) = database();
            let upd = build::update(
                t,
                vec![cols[0]],
                vec![simdb::query::Predicate {
                    table: t,
                    column: cols[2],
                    kind: PredicateKind::Equality,
                    selectivity: sel,
                }],
            );
            // idx[0] = (a) and idx[2] = (a, b) both contain the modified column.
            let none = db.cost(&upd, &IndexSet::empty());
            let one = db.cost(&upd, &IndexSet::single(idx[0]));
            let two = db.cost(&upd, &IndexSet::from_iter([idx[0], idx[2]]));
            prop_assert!(one >= none - 1e-9);
            prop_assert!(two >= one - 1e-9);
        }
    }
}

/// Properties of the C²UCB bandit arm: deterministic replay, the safety
/// gate's never-worse invariant, and monotone cumulative regret.
mod bandit_properties {
    use super::*;
    use advisors::{compute_optimal, BanditAdvisor, BanditConfig};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Arm scores, recommendations and fallback counts are a pure
        /// function of (history, seed): two replays of the same scripted
        /// workload are bit-identical at every step.
        #[test]
        fn bandit_replay_is_bit_identical(
            savings in savings_strategy(3, 8),
            seed in 0u64..1_000_000,
        ) {
            let (env, stmts, ids) = additive_env(&savings, 150.0, 25.0);
            let trace = || {
                let mut bandit =
                    BanditAdvisor::new(&env, ids.clone(), BanditConfig::with_seed(seed));
                let mut out: Vec<u64> = Vec::new();
                for q in &stmts {
                    bandit.analyze_query(q);
                    for (id, score) in bandit.arm_scores(q) {
                        out.push(id.0 as u64);
                        out.push(score.to_bits());
                    }
                    out.push(bandit.recommend().len() as u64);
                    out.push(bandit.safety_fallbacks());
                }
                out
            };
            prop_assert_eq!(trace(), trace());
        }

        /// The safety gate never adopts a proposal whose model-estimated
        /// cost exceeds staying put; a rejected proposal leaves the deployed
        /// configuration untouched and bumps the (monotone) fallback counter.
        #[test]
        fn safety_gate_never_adopts_a_worse_estimate(
            savings in savings_strategy(3, 10),
            seed in 0u64..1_000_000,
        ) {
            let (env, stmts, ids) = additive_env(&savings, 150.0, 25.0);
            let mut bandit = BanditAdvisor::new(&env, ids.clone(), BanditConfig::with_seed(seed));
            let mut fallbacks_before = 0;
            for q in &stmts {
                let before = bandit.recommend();
                bandit.analyze_query(q);
                if let Some(gate) = bandit.last_gate() {
                    if gate.adopted {
                        prop_assert!(gate.est_proposed <= gate.est_stay + 1e-9);
                        prop_assert_eq!(bandit.recommend(), gate.proposed.clone());
                    } else {
                        prop_assert!(gate.est_proposed > gate.est_stay);
                        prop_assert_eq!(bandit.recommend(), before.clone());
                    }
                }
                let fallbacks = bandit.safety_fallbacks();
                prop_assert!(fallbacks >= fallbacks_before);
                fallbacks_before = fallbacks;
            }
        }

        /// Cumulative regret is monotone non-decreasing — both for an
        /// arbitrary non-decreasing cost series and for the bandit's own
        /// session replay — and `regret_of` is the series' last element.
        #[test]
        fn regret_series_is_monotone_non_decreasing(
            savings in savings_strategy(2, 8),
            steps in proptest::collection::vec(0.0f64..250.0, 8),
            seed in 0u64..1_000_000,
        ) {
            let (env, stmts, ids) = additive_env(&savings, 150.0, 25.0);
            let partition: Vec<Vec<IndexId>> = ids.iter().map(|&i| vec![i]).collect();
            let opt = compute_optimal(&env, &stmts, &partition, &IndexSet::empty());

            // Any non-decreasing cumulative run-cost series has monotone
            // clamped regret.
            let mut cumulative = Vec::new();
            let mut acc = 0.0;
            for s in &steps {
                acc += s;
                cumulative.push(acc);
            }
            let series = opt.regret_series(&cumulative);
            prop_assert_eq!(series.len(), cumulative.len());
            let mut prev = 0.0;
            for &r in &series {
                prop_assert!(r >= prev, "regret series must never decrease");
                prev = r;
            }
            prop_assert_eq!(
                opt.regret_of(&cumulative).to_bits(),
                series.last().copied().unwrap_or(0.0).to_bits()
            );

            // The bandit's actual session replay obeys the same invariant
            // end-to-end.
            let bandit = BanditAdvisor::new(&env, ids.clone(), BanditConfig::with_seed(seed));
            let mut session = TuningSession::new(&env, bandit);
            session.replay(&stmts, &FeedbackStream::empty());
            let bandit_series = opt.regret_series(session.cost_series());
            let mut prev = 0.0;
            for &r in &bandit_series {
                prop_assert!(r >= prev);
                prev = r;
            }
        }
    }
}

/// Admission-gate (backpressure) properties of the bounded service ingress.
///
/// Model-based: every generated interleaving of query/vote submissions and
/// drains is driven through a fresh bounded [`Ingress`] while a parallel
/// model implements the *documented spec* (tenant-cap check, then global
/// budget; votes displace the newest sheddable event of their own shard,
/// and go over budget as `deferred` only when nothing is sheddable).  Every
/// outcome, every queue, and every counter must match the model at every
/// step — and a full replay of the same submission order must produce
/// bit-equal counters, because shed choice is a pure function of submission
/// order.
mod ingress_properties {
    use super::*;
    use std::sync::Arc;
    use wfit::service::{
        Event, Ingress, IngressConfig, IngressStats, RejectReason, SubmitOutcome, TenantId,
    };

    const TENANTS: usize = 3;

    fn statement() -> Arc<simdb::query::Statement> {
        let mut b = CatalogBuilder::new();
        b.table("t")
            .rows(1000.0)
            .column("a", DataType::Integer, 100.0)
            .finish();
        let db = Database::new(b.build());
        Arc::new(db.parse("SELECT a FROM t WHERE a = 1").unwrap())
    }

    /// One decoded submission-order entry.
    #[derive(Clone, Copy)]
    enum Op {
        Query(u32),
        Vote(u32),
        Drain,
    }

    /// Pure decode of the generated op stream: 6/8 queries, 1/8 votes,
    /// 1/8 drains, tenants round-robin by value.
    fn decode(raw: &[usize]) -> Vec<Op> {
        raw.iter()
            .map(|&op| {
                let tenant = (op % TENANTS) as u32;
                match (op / TENANTS) % 8 {
                    0..=5 => Op::Query(tenant),
                    6 => Op::Vote(tenant),
                    _ => Op::Drain,
                }
            })
            .collect()
    }

    /// Drive a fresh bounded ingress through `ops` single-threaded, checking
    /// every outcome, queue and counter against the spec model at every
    /// step, and return the final stats.
    fn drive(per_tenant: usize, global: usize, ops: &[Op]) -> IngressStats {
        let stmt = statement();
        let ingress = Ingress::with_config(IngressConfig::bounded(per_tenant, global));
        for _ in 0..TENANTS {
            ingress.add_shard();
        }
        // Spec model: per-tenant queues of `is_vote` flags plus the ledger.
        let mut queues: Vec<Vec<bool>> = vec![Vec::new(); TENANTS];
        let (mut submitted, mut drained, mut shed, mut deferred, mut rejected) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        let (mut votes_in, mut votes_out) = (0u64, 0u64);
        for op in ops {
            match *op {
                Op::Query(t) => {
                    let ti = t as usize;
                    let tenant_full = per_tenant > 0 && queues[ti].len() >= per_tenant;
                    let global_len: usize = queues.iter().map(Vec::len).sum();
                    let global_full = global > 0 && global_len >= global;
                    let outcome = ingress.try_submit(Event::query(TenantId(t), stmt.clone()));
                    if tenant_full {
                        assert_eq!(
                            outcome,
                            SubmitOutcome::Rejected {
                                reason: RejectReason::TenantFull
                            }
                        );
                        rejected += 1;
                    } else if global_full {
                        assert_eq!(
                            outcome,
                            SubmitOutcome::Rejected {
                                reason: RejectReason::GlobalFull
                            }
                        );
                        rejected += 1;
                    } else {
                        assert_eq!(outcome, SubmitOutcome::Accepted);
                        queues[ti].push(false);
                        submitted += 1;
                    }
                }
                Op::Vote(t) => {
                    let ti = t as usize;
                    let tenant_full = per_tenant > 0 && queues[ti].len() >= per_tenant;
                    let global_len: usize = queues.iter().map(Vec::len).sum();
                    let global_ok = global == 0 || global_len < global;
                    let outcome = ingress.try_submit(Event::vote(
                        TenantId(t),
                        IndexSet::empty(),
                        IndexSet::empty(),
                    ));
                    votes_in += 1;
                    submitted += 1;
                    if !tenant_full && global_ok {
                        assert_eq!(outcome, SubmitOutcome::Accepted);
                        queues[ti].push(true);
                    } else if let Some(victim) = queues[ti].iter().rposition(|is_vote| !is_vote) {
                        // Displacement: the newest sheddable event of the
                        // vote's own shard is shed, net length unchanged.
                        assert_eq!(outcome, SubmitOutcome::Accepted);
                        queues[ti].remove(victim);
                        queues[ti].push(true);
                        shed += 1;
                    } else {
                        // Nothing sheddable: over budget, counted deferred.
                        assert_eq!(outcome, SubmitOutcome::Deferred);
                        queues[ti].push(true);
                        deferred += 1;
                    }
                }
                Op::Drain => {
                    for (ti, run) in ingress.drain_all().into_iter().enumerate() {
                        // The drained run is exactly the model queue, in
                        // FIFO order, vote/query kinds included.
                        assert_eq!(run.len(), queues[ti].len());
                        for (event, &is_vote) in run.iter().zip(&queues[ti]) {
                            assert_eq!(!event.is_sheddable(), is_vote);
                        }
                        votes_out += queues[ti].iter().filter(|v| **v).count() as u64;
                        drained += run.len() as u64;
                        queues[ti].clear();
                    }
                }
            }
            // Step invariants.  The sheddable portion of every queue
            // respects the caps *unconditionally*; whole queues respect
            // them whenever no vote ever went over budget.
            let global_len: usize = queues.iter().map(Vec::len).sum();
            assert_eq!(ingress.pending(), global_len);
            if per_tenant > 0 {
                for q in &queues {
                    assert!(q.iter().filter(|v| !**v).count() <= per_tenant);
                    if deferred == 0 {
                        assert!(q.len() <= per_tenant);
                    }
                }
            }
            if global > 0 {
                let sheddable: usize = queues
                    .iter()
                    .map(|q| q.iter().filter(|v| !**v).count())
                    .sum();
                assert!(sheddable <= global);
                if deferred == 0 {
                    assert!(global_len <= global);
                }
            }
        }
        let stats = ingress.stats();
        assert_eq!(stats.submitted, submitted);
        assert_eq!(stats.drained, drained);
        assert_eq!(stats.shed, shed, "only queries are ever shed");
        assert_eq!(stats.deferred, deferred);
        assert_eq!(stats.rejected, rejected);
        assert_eq!(
            stats.pending as usize,
            queues.iter().map(Vec::len).sum::<usize>()
        );
        assert_eq!(stats.pending, stats.submitted - stats.drained - stats.shed);
        // Votes are never shed: every vote submitted was drained or is
        // still pending.
        let votes_pending: u64 = queues
            .iter()
            .map(|q| q.iter().filter(|v| **v).count() as u64)
            .sum();
        assert_eq!(votes_in, votes_out + votes_pending);
        stats
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Tentpole invariants, for any interleaving over any caps:
        /// pending depth never exceeds `per_tenant_depth`/`global_depth`
        /// (beyond the documented over-budget-vote exception), votes are
        /// never shed, outcomes match the spec model step by step — and a
        /// replay of the same submission order yields bit-equal counters
        /// (shed choice is a pure function of submission order).
        #[test]
        fn admission_gate_matches_the_spec_model_and_replays_bit_equal(
            per_tenant in 0usize..6,
            global in 0usize..12,
            raw in proptest::collection::vec(0usize..(TENANTS * 8), 160),
        ) {
            let ops = decode(&raw);
            let first = drive(per_tenant, global, &ops);
            let second = drive(per_tenant, global, &ops);
            prop_assert_eq!(first, second);
        }
    }
}
