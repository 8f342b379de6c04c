//! Criterion micro-benchmarks of the building blocks: the per-statement cost
//! of `WFA.analyzeQuery` as a function of part size, the `O(k·2^k)`
//! δ-transform `hypercube::min_plus_delta` on the same inputs, the OPT
//! oracle over a small workload's offline selection, IBG construction, the
//! what-if optimizer itself (`Database::whatif_cost_uncached`, bypassing the
//! per-database memo), and `choosePartition`.

use advisors::compute_optimal;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ibg::partition::InteractionWeights;
use ibg::IndexBenefitGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simdb::index::{IndexId, IndexSet};
use wfit_core::candidates::{choose_partition, offline_selection, MAX_PART_SIZE};
use wfit_core::config::WfitConfig;
use wfit_core::env::TuningEnv;
use wfit_core::hypercube;
use wfit_core::wfa::WfaInstance;
use workload::{Benchmark, BenchmarkSpec};

/// `wfa_analyze_query`'s statement costs over a part of `part_size`
/// indexes: a query that gets cheaper with every index.
fn query_costs(part_size: usize) -> Vec<f64> {
    (0..(1usize << part_size))
        .map(|m| 1000.0 / (1.0 + m.count_ones() as f64))
        .collect()
}

fn bench_wfa_analyze(c: &mut Criterion) {
    let mut group = c.benchmark_group("wfa_analyze_query");
    for part_size in [4usize, 8, 10] {
        let ids: Vec<IndexId> = (0..part_size as u32).map(IndexId).collect();
        let costs = query_costs(part_size);
        group.bench_with_input(
            BenchmarkId::from_parameter(part_size),
            &part_size,
            |b, _| {
                let mut wfa = WfaInstance::new(
                    ids.clone(),
                    vec![500.0; part_size],
                    vec![1.0; part_size],
                    &IndexSet::empty(),
                );
                b.iter(|| wfa.analyze_query_with_costs(&costs));
            },
        );
    }
    group.finish();
}

/// The kernel on `wfa_analyze_query`'s first update: `f = w + cost` with
/// `w = δ(∅, ·)`, create 500 and drop 1 per index.
fn bench_min_plus_delta(c: &mut Criterion) {
    let mut group = c.benchmark_group("hypercube_min_plus_delta");
    for part_size in [4usize, 7, 10] {
        let (create, drop) = (vec![500.0; part_size], vec![1.0; part_size]);
        let f: Vec<f64> = query_costs(part_size)
            .iter()
            .enumerate()
            .map(|(m, cost)| hypercube::delta(&create, &drop, 0, m) + cost)
            .collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(part_size),
            &part_size,
            |b, _| b.iter(|| hypercube::min_plus_delta(&create, &drop, &f)),
        );
    }
    group.finish();
}

/// OPT over the offline selection of a 16-statement workload.  After the
/// first iteration every what-if call is a memo hit, so this times the
/// per-statement IBG builds and the per-part DP.
fn bench_opt(c: &mut Criterion) {
    let bench = Benchmark::generate(BenchmarkSpec::small(2));
    let selection = offline_selection(&bench.db, &bench.statements, &WfitConfig::default());
    c.bench_function("opt_compute_optimal", |b| {
        b.iter(|| {
            compute_optimal(
                &bench.db,
                &bench.statements,
                &selection.partition,
                &IndexSet::empty(),
            )
        });
    });
}

fn bench_ibg_and_whatif(c: &mut Criterion) {
    let bench = Benchmark::generate(BenchmarkSpec::small(2));
    let stmt = bench
        .statements
        .iter()
        .find(|s| !s.is_update())
        .expect("workload has queries")
        .clone();
    let candidates = bench.db.extract_candidates(&stmt);
    let relevant = IndexSet::from_iter(candidates.iter().copied());

    c.bench_function("whatif_single_call", |b| {
        b.iter(|| bench.db.whatif_cost_uncached(&stmt, &relevant));
    });
    // Builds through the memoized `Database::whatif`: after the first
    // iteration every node's cost is a memo hit, so this times the graph
    // construction over a warm memo, not the optimizer.
    c.bench_function("ibg_build_per_statement", |b| {
        b.iter(|| IndexBenefitGraph::build(relevant.clone(), |cfg| bench.db.whatif(&stmt, cfg)));
    });
}

fn bench_choose_partition(c: &mut Criterion) {
    let ids: Vec<IndexId> = (0..24u32).map(IndexId).collect();
    let mut weights = InteractionWeights::new();
    for i in 0..24u32 {
        for j in (i + 1)..24u32 {
            if (i + j) % 3 == 0 {
                weights.set(IndexId(i), IndexId(j), (i + j) as f64);
            }
        }
    }
    let config = WfitConfig::default();
    c.bench_function("choose_partition_24_candidates", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            choose_partition(
                &ids,
                &Vec::new(),
                &weights,
                config.state_cnt,
                MAX_PART_SIZE,
                config.rand_cnt,
                &mut rng,
            )
        });
    });
}

criterion_group!(
    benches,
    bench_wfa_analyze,
    bench_min_plus_delta,
    bench_opt,
    bench_ibg_and_whatif,
    bench_choose_partition
);
criterion_main!(benches);
