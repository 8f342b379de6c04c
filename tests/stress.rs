//! Concurrency stress suite for the service hot path: N threads hammering
//! one tenant's [`SharedWhatIfCache`] with overlapping fingerprints.
//!
//! What these tests pin down:
//!
//! * **No deadlock / no panic** — every scenario joins all of its threads
//!   (a deadlock would hang the suite, a lock-order bug would panic).
//! * **Values are never corrupted** — under arbitrary interleavings, with
//!   and without eviction pressure, every answer equals the deterministic
//!   oracle (`whatif_cost_uncached`, or the pure synthetic cost function);
//!   the final cost map of an unbounded cache equals a single-threaded
//!   replay of the same requests, bit for bit.
//! * **Counters reconcile** — every request is counted as exactly one hit or
//!   one miss, evictions never exceed inserts, occupancy never exceeds
//!   capacity, and the requests each thread issues through its clone of a
//!   [`TenantEnv`] sum to the shared cache's request counter.
//!
//! The harness golden suite covers the *deterministic* single-worker drain;
//! this suite covers the concurrent access patterns the shared structures
//! must additionally survive (many sessions of one tenant analyzing in
//! parallel, the deployment shape the ROADMAP's async-ingestion work needs).

use advisors::{BanditAdvisor, BanditConfig};
use simdb::cache::{CacheConfig, SharedWhatIfCache};
use simdb::catalog::CatalogBuilder;
use simdb::database::Database;
use simdb::index::{IndexId, IndexSet};
use simdb::optimizer::PlanCost;
use simdb::types::DataType;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use wfit::core::hypercube::set_of;
use wfit::core::{IndexAdvisor, TuningEnv};
use wfit::service::{
    Event, Ingress, IngressConfig, SessionId, TenantEnv, TenantId, TenantOptions, TuningService,
};
use wfit::{Wfit, WfitConfig};

const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 400;

/// Deterministic key stream: thread `t`'s `i`-th request.  Streams overlap
/// heavily across threads (the whole point: contended keys), but each is a
/// pure function so any schedule requests the same multiset of keys.
fn key_of(thread: usize, i: usize) -> (u64, usize) {
    let mix = (thread * 7 + i * 13) % 96;
    ((mix / 4) as u64, mix % 4)
}

/// Pure synthetic cost: the oracle every cache answer is checked against.
fn synthetic_plan(fingerprint: u64, mask: usize) -> PlanCost {
    PlanCost {
        total: (fingerprint * 100 + mask as u64) as f64,
        used_indexes: IndexSet::empty(),
        description: String::new(),
    }
}

fn database() -> (Arc<Database>, Vec<IndexId>) {
    let mut b = CatalogBuilder::new();
    b.table("t")
        .rows(600_000.0)
        .column("a", DataType::Integer, 90_000.0)
        .column("b", DataType::Integer, 9_000.0)
        .column("c", DataType::Integer, 128.0)
        .finish();
    let db = Database::new(b.build());
    let t = db.catalog().table_by_name("t").unwrap();
    let cols: Vec<simdb::ColumnId> = db.catalog().table(t).columns.clone();
    let i1 = db.define_index_on(t, vec![cols[0]]);
    let i2 = db.define_index_on(t, vec![cols[1]]);
    (Arc::new(db), vec![i1, i2])
}

/// Run the standard key stream against a cache from `threads` threads,
/// asserting every answer against the synthetic oracle.
fn hammer(cache: &SharedWhatIfCache, idx: &[IndexId], threads: usize) {
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                for i in 0..OPS_PER_THREAD {
                    let (f, mask) = key_of(t, i);
                    let got =
                        cache.get_or_compute(f, &set_of(idx, mask), || synthetic_plan(f, mask));
                    assert_eq!(
                        got.total.to_bits(),
                        synthetic_plan(f, mask).total.to_bits(),
                        "thread {t} op {i}"
                    );
                }
            });
        }
    });
}

#[test]
fn concurrent_unbounded_cache_matches_single_threaded_replay() {
    let (_, idx) = database();
    let concurrent = SharedWhatIfCache::new();
    hammer(&concurrent, &idx, THREADS);

    // Single-threaded replay of the same multiset of requests.
    let replay = SharedWhatIfCache::new();
    for t in 0..THREADS {
        for i in 0..OPS_PER_THREAD {
            let (f, mask) = key_of(t, i);
            replay.get_or_compute(f, &set_of(&idx, mask), || synthetic_plan(f, mask));
        }
    }

    // The final cost maps agree: same resident keys (no eviction), same
    // values bit for bit.  `get_or_compute` with a panicking closure proves
    // residency.
    assert_eq!(concurrent.len(), replay.len());
    for t in 0..THREADS {
        for i in 0..OPS_PER_THREAD {
            let (f, mask) = key_of(t, i);
            let config = set_of(&idx, mask);
            let a = concurrent.get_or_compute(f, &config, || unreachable!("must be resident"));
            let b = replay.get_or_compute(f, &config, || unreachable!("must be resident"));
            assert_eq!(a.total.to_bits(), b.total.to_bits());
        }
    }
}

#[test]
fn concurrent_cache_counters_reconcile_with_total_calls() {
    for capacity in [0usize, 7, 24, 96] {
        let config = if capacity == 0 {
            CacheConfig::unbounded()
        } else {
            CacheConfig::bounded(capacity)
        };
        let (_, idx) = database();
        let cache = SharedWhatIfCache::with_config(config);
        hammer(&cache, &idx, THREADS);
        let stats = cache.stats();
        let total_calls = (THREADS * OPS_PER_THREAD) as u64;
        assert_eq!(stats.requests, total_calls, "capacity {capacity}");
        // Every request is exactly one hit or one miss.
        assert_eq!(
            stats.cache_hits + stats.optimizer_calls,
            total_calls,
            "capacity {capacity}"
        );
        // Evictions never exceed inserts, occupancy never exceeds capacity.
        assert!(stats.evictions <= stats.optimizer_calls);
        assert_eq!(stats.entries as usize, cache.len());
        if capacity > 0 {
            assert!(
                cache.len() <= capacity,
                "len {} > capacity {capacity}",
                cache.len()
            );
            assert!(stats.evictions > 0 || capacity >= 96, "capacity {capacity}");
        } else {
            assert_eq!(stats.evictions, 0);
            // 96 distinct (fingerprint, mask) keys in the stream.
            assert_eq!(cache.len(), 96);
        }
    }
}

#[test]
fn tenant_env_per_thread_requests_sum_to_shared_cache_requests() {
    let (db, idx) = database();
    let env = TenantEnv::with_options(db.clone(), TenantOptions::default().with_cache_capacity(32));
    let stmts: Vec<_> = [
        "SELECT c FROM t WHERE a = 1",
        "SELECT c FROM t WHERE b = 2",
        "SELECT c FROM t WHERE a < 3",
    ]
    .iter()
    .map(|sql| db.parse(sql).unwrap())
    .collect();
    let issued: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let session = env.clone();
                let db = &db;
                let idx = &idx;
                let stmts = &stmts;
                scope.spawn(move || {
                    let mut requests = 0u64;
                    for i in 0..96 {
                        let stmt = &stmts[(t + i) % stmts.len()];
                        let config = set_of(&idx[..], (t + i) % 4);
                        // Cached answers equal the uncached oracle even while
                        // other threads force evictions.
                        assert_eq!(
                            session.cost(stmt, &config).to_bits(),
                            db.whatif_cost_uncached(stmt, &config).total.to_bits(),
                        );
                        requests += 1;
                        if i % 16 == 0 {
                            // IBG builds interleave with raw cost probes.
                            let shared =
                                session.ibg(stmt, IndexSet::from_iter(idx.iter().copied()));
                            assert!(shared.graph.cost(&config) > 0.0);
                            requests += shared.graph.whatif_calls() as u64;
                        }
                    }
                    requests
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stress thread panicked"))
            .collect()
    });

    // The threads' own counts attribute exactly the shared cache's traffic:
    // every what-if request went through exactly one thread's clone.
    let stats = env.cache_stats();
    assert_eq!(issued.iter().sum::<u64>(), stats.requests);
    assert_eq!(stats.cache_hits + stats.optimizer_calls, stats.requests);
    assert!(stats.entries <= 32);
}

/// The async-ingestion stress scenario of the pipelined executor: **8
/// producer threads submit live while 4 workers drain**, and the final
/// session state is bit-identical to a single-thread replay of the same
/// per-tenant streams.
///
/// One producer per tenant keeps per-tenant submission order deterministic
/// (the service's ordering contract is per tenant, not global), while the
/// drain overlaps submission arbitrarily: every poll round snapshots
/// whatever has arrived, places each busy tenant on one of 4 workers from
/// the queue depths, and drains the bins in parallel — so rounds, bins and
/// the tenants' relative progress all vary run to run, and none of it may
/// leak into session state.
#[test]
fn concurrent_submission_with_four_worker_drain_matches_sequential_replay() {
    const TENANTS: usize = 8;
    const QUERIES_PER_TENANT: usize = 40;
    const VOTE_EVERY: usize = 10;

    // Deterministic per-tenant event streams over one shared catalog shape
    // (each tenant still gets its own Database instance — tenants never
    // share state).
    let build_service = |workers: usize| {
        let mut svc = TuningService::with_workers(workers);
        let mut streams: Vec<Vec<Event>> = Vec::new();
        for t in 0..TENANTS {
            let (db, idx) = database();
            let id = svc.add_tenant_with(
                format!("tenant-{t}"),
                db.clone(),
                TenantOptions::default().with_cache_capacity(48),
            );
            for s in 0..2 {
                svc.add_session(id, format!("t{t}/s{s}"), |env| {
                    Box::new(Wfit::new(env, WfitConfig::default())) as Box<dyn IndexAdvisor + Send>
                });
            }
            // A C²UCB bandit session rides along: its ridge model and safety
            // gate must be just as schedule-independent as WFIT's state.
            let arms = idx.clone();
            svc.add_session(id, format!("t{t}/bandit"), move |env| {
                Box::new(BanditAdvisor::new(
                    env,
                    arms,
                    BanditConfig::with_seed(0xC2CB ^ t as u64),
                )) as Box<dyn IndexAdvisor + Send>
            });
            let stmts: Vec<_> = [
                "SELECT c FROM t WHERE a = 1",
                "SELECT c FROM t WHERE b = 2",
                "SELECT c FROM t WHERE a < 3",
                "SELECT a FROM t WHERE c = 4",
            ]
            .iter()
            .map(|sql| Arc::new(db.parse(sql).unwrap()))
            .collect();
            let mut events = Vec::new();
            for i in 0..QUERIES_PER_TENANT {
                events.push(Event::query(id, stmts[(t + i) % stmts.len()].clone()));
                if (i + 1) % VOTE_EVERY == 0 {
                    events.push(Event::vote(
                        id,
                        IndexSet::single(idx[i / VOTE_EVERY % idx.len()]),
                        IndexSet::empty(),
                    ));
                }
            }
            streams.push(events);
        }
        (svc, streams)
    };

    let fingerprint = |svc: &TuningService| -> Vec<String> {
        (0..TENANTS as u32)
            .flat_map(|t| {
                (0..3).map(move |s| {
                    let id = SessionId::new(TenantId(t), s);
                    (t, id)
                })
            })
            .map(|(t, id)| {
                let stats = svc.session_stats(id);
                format!(
                    "t{t}/{} q={} v={} tw={} sf={} rec={} series={:?}",
                    svc.session_label(id),
                    stats.queries,
                    stats.votes,
                    stats.total_work.to_bits(),
                    svc.session(id).advisor().safety_fallbacks(),
                    svc.recommendation(id),
                    svc.cost_series(id)
                        .iter()
                        .map(|c| c.to_bits())
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    };

    // Concurrent arm: one producer thread per tenant, main thread polling
    // on 4 workers while producers are mid-stream.
    let (mut concurrent, streams) = build_service(4);
    let expected: u64 = streams.iter().map(|s| s.len() as u64).sum();
    let handle = concurrent.handle();
    let mut processed = 0u64;
    let mut rounds = 0u64;
    std::thread::scope(|scope| {
        for stream in &streams {
            let handle = handle.clone();
            scope.spawn(move || {
                for event in stream {
                    handle.submit(event.clone());
                }
            });
        }
        while processed < expected {
            let round = concurrent.poll();
            processed += round.events;
            rounds += 1;
            if round.events == 0 {
                std::thread::yield_now();
            }
        }
    });
    assert_eq!(concurrent.pending(), 0, "every submitted event was drained");
    let sched = concurrent.sched_stats();
    // Empty polls are not counted as rounds; every counted round processed
    // something.
    assert!(sched.rounds >= 1 && sched.rounds <= rounds);
    assert!(sched.session_runs >= sched.rounds);

    // Sequential arm: same streams, everything queued up front, one
    // worker.
    let (mut sequential, seq_streams) = build_service(1);
    for stream in &seq_streams {
        for event in stream {
            sequential.submit(event.clone());
        }
    }
    sequential.process_pending();
    assert_eq!(sequential.sched_stats().rounds, 1);

    assert_eq!(
        fingerprint(&concurrent),
        fingerprint(&sequential),
        "live submission + 4-worker drain must replay to identical session state"
    );

    // Counters still reconcile under the concurrent schedule: every cache
    // request is exactly one hit or one miss, occupancy respects capacity.
    for t in 0..TENANTS as u32 {
        let stats = concurrent.cache_stats(TenantId(t));
        assert_eq!(stats.cache_hits + stats.optimizer_calls, stats.requests);
        assert!(stats.entries <= 48);
        assert_eq!(
            concurrent.tenant_processed(TenantId(t)),
            streams[t as usize].len() as u64
        );
    }
}

/// Satellite of the bandit PR, through the full harness path: a bandit cell
/// drained by 4 workers replays every cost cell, the regret series and the
/// safety-fallback counter bit-identical to a single-worker drain of the
/// same skewed workload.
#[test]
fn bandit_cells_under_four_worker_drain_match_single_worker_replay() {
    use harness::{run_service_scenario, scenarios};

    // service-skew-mini ships with 4 workers: its three tenants drain on
    // three of them in parallel, the hot one alone on its own worker.
    let parallel = run_service_scenario(&scenarios::service_skew_mini().with_bandit(true));
    let single = run_service_scenario(
        &scenarios::service_skew_mini()
            .with_bandit(true)
            .with_workers(1),
    );

    let svc = parallel.service.as_ref().expect("service summary present");
    let single_svc = single.service.as_ref().unwrap();
    assert_eq!((svc.workers, single_svc.workers), (4, 1));
    assert!(
        svc.load_imbalance > single_svc.load_imbalance,
        "the 4-worker plan spreads the tenants over several workers"
    );

    assert_eq!(single.cells.len(), parallel.cells.len());
    assert!(
        parallel.cells.iter().any(|c| c.advisor == "BANDIT"),
        "the fleet must field a bandit cell"
    );
    for (s, t) in single.cells.iter().zip(&parallel.cells) {
        assert_eq!(s.label, t.label);
        assert_eq!(
            s.total_work.to_bits(),
            t.total_work.to_bits(),
            "{}: cost cells must not depend on the drain schedule",
            s.label
        );
        assert_eq!(s.ratio_series, t.ratio_series, "{}", s.label);
        assert_eq!(
            s.regret.to_bits(),
            t.regret.to_bits(),
            "{}: the regret series is a pure function of session state",
            s.label
        );
        assert_eq!(s.safety_fallbacks, t.safety_fallbacks, "{}", s.label);
        assert_eq!(s.transitions, t.transitions, "{}", s.label);
    }
}

// ---------------------------------------------------------------------------
// Bounded-ingress overload: admission accounting under producer/drainer races
// ---------------------------------------------------------------------------

/// **Overload reconcile** — 8 producers flood a bounded ingress (tenant
/// depth 16, global budget 64) with sheddable queries, periodic never-shed
/// votes, and occasional *blocking* submits, while a drainer races
/// `drain_all`.  After quiescence the admission ledger must balance exactly:
///
/// * `submitted == drained + shed + pending` (and `pending == 0` after the
///   final drain),
/// * `offered == submitted + rejected` — nothing vanishes untracked,
/// * every vote ever offered is drained (votes are never rejected or shed),
/// * `peak_pending` never exceeded the global budget by more than the
///   deferred (over-budget vote) count.
#[test]
fn bounded_ingress_overload_reconciles_under_eight_producers() {
    const PRODUCERS: usize = 8;
    const OPS: usize = 600;
    const VOTE_EVERY: usize = 9;
    const BLOCKING_EVERY: usize = 25;
    const TENANT_DEPTH: usize = 16;
    const GLOBAL_DEPTH: usize = 64;

    let (db, _) = database();
    // The raw ingress never executes events, so one parsed statement serves
    // every tenant.
    let stmt = Arc::new(db.parse("SELECT c FROM t WHERE a = 1").unwrap());
    let ingress = Arc::new(Ingress::with_config(IngressConfig::bounded(
        TENANT_DEPTH,
        GLOBAL_DEPTH,
    )));
    for _ in 0..PRODUCERS {
        ingress.add_shard();
    }

    let offered = AtomicU64::new(0);
    let votes_offered = AtomicU64::new(0);
    let (drained_total, drained_votes) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..PRODUCERS as u32)
            .map(|t| {
                let ingress = &ingress;
                let stmt = &stmt;
                let offered = &offered;
                let votes_offered = &votes_offered;
                scope.spawn(move || {
                    for i in 0..OPS {
                        if (i + 1) % VOTE_EVERY == 0 {
                            let outcome = ingress.try_submit(Event::vote(
                                TenantId(t),
                                IndexSet::empty(),
                                IndexSet::empty(),
                            ));
                            assert!(outcome.is_admitted(), "votes are never rejected");
                            votes_offered.fetch_add(1, Ordering::Relaxed);
                        } else if (i + 1) % BLOCKING_EVERY == 0 {
                            // Blocking path: parks until the drainer frees
                            // capacity, never drops the event.
                            ingress.submit(Event::query(TenantId(t), stmt.clone()));
                        } else {
                            ingress.try_submit(Event::query(TenantId(t), stmt.clone()));
                        }
                        offered.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();

        // Drain concurrently until every producer has finished and the
        // queues are empty (the blocking submits depend on this loop).
        let mut total = 0u64;
        let mut votes = 0u64;
        loop {
            for run in ingress.drain_all() {
                total += run.len() as u64;
                votes += run.iter().filter(|e| !e.is_sheddable()).count() as u64;
            }
            if handles.iter().all(|h| h.is_finished()) && ingress.pending() == 0 {
                break;
            }
            std::thread::yield_now();
        }
        (total, votes)
    });

    let stats = ingress.stats();
    assert_eq!(stats.pending, 0, "quiesced: nothing left queued");
    assert_eq!(
        stats.submitted,
        stats.drained + stats.shed,
        "submitted == drained + shed + pending"
    );
    assert_eq!(
        stats.submitted + stats.rejected,
        offered.load(Ordering::Relaxed),
        "offered == submitted + rejected"
    );
    assert_eq!(drained_total, stats.drained);
    assert_eq!(
        drained_votes,
        votes_offered.load(Ordering::Relaxed),
        "every vote offered was drained"
    );
    assert!(
        stats.rejected > 0 || stats.shed > 0,
        "the overload was real: the gate actually turned work away"
    );
    assert!(
        stats.peak_pending <= GLOBAL_DEPTH as u64 + stats.deferred,
        "memory bound held: peak {} vs budget {} (+{} deferred votes)",
        stats.peak_pending,
        GLOBAL_DEPTH,
        stats.deferred
    );
}

/// **Blocking-submit liveness** (the park-after-`Deferred` recheck fix) —
/// producers blocking-`submit` queries through depth-**1** shards while a
/// drainer loops `drain_all` as fast as it can.  With one-slot queues every
/// single submit races the drain: admission fails, the drain frees the slot
/// immediately, and the producer must *take* that slot on its pre-park
/// recheck instead of sleeping a full backoff step with capacity sitting
/// idle.  (The historical implementation parked unconditionally after a
/// failed admission, so this exact schedule — capacity freed between the
/// failed try and the park — degraded into lockstep backoff sleeps; the
/// test then crawled.)  Liveness is the completion of the scope itself;
/// correctness is the ledger: every blocking submit is eventually admitted
/// and drained, nothing is shed or rejected.
#[test]
fn blocking_submit_through_depth_one_shards_stays_live() {
    const PRODUCERS: usize = 4;
    const OPS: usize = 300;

    let (db, _) = database();
    let stmt = Arc::new(db.parse("SELECT c FROM t WHERE a = 1").unwrap());
    let ingress = Arc::new(Ingress::with_config(IngressConfig::bounded(1, 0)));
    for _ in 0..PRODUCERS {
        ingress.add_shard();
    }

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..PRODUCERS as u32)
            .map(|t| {
                let ingress = &ingress;
                let stmt = &stmt;
                scope.spawn(move || {
                    for _ in 0..OPS {
                        // The blocking gate may never drop a query: with a
                        // one-slot queue it parks (or recheck-retries) until
                        // the drainer makes room.
                        let outcome = ingress.submit(Event::query(TenantId(t), stmt.clone()));
                        assert!(outcome.is_admitted());
                    }
                })
            })
            .collect();

        // Tight drain loop: frees each one-slot queue as soon as it fills,
        // maximizing the failed-admission/freed-slot race the recheck covers.
        while !handles.iter().all(|h| h.is_finished()) || ingress.pending() > 0 {
            if ingress.drain_all().is_empty() {
                std::thread::yield_now();
            }
        }
    });

    let stats = ingress.stats();
    assert_eq!(stats.pending, 0);
    assert_eq!(stats.submitted, (PRODUCERS * OPS) as u64);
    assert_eq!(
        stats.drained, stats.submitted,
        "every admitted query drained"
    );
    assert_eq!(stats.shed, 0, "blocking submits are never displaced");
    assert_eq!(stats.rejected, 0, "blocking submits are never rejected");
}

/// **Snapshot semantics** (the `IngressStats::pending` race-window fix) —
/// every counter of a shard lives under that shard's single mutex, so the
/// identity `pending == submitted - drained - shed` must hold in **every**
/// snapshot taken while producers and a drainer race, not just after
/// quiescence.  (The historical implementation read `submitted` and the
/// queue length under separate lock acquisitions, so a submit landing
/// between the two reads could make a snapshot disagree transiently.)
#[test]
fn ingress_stats_snapshots_reconcile_mid_flight() {
    const PRODUCERS: usize = 4;
    const OPS: usize = 800;
    const VOTE_EVERY: usize = 7;

    let (db, _) = database();
    let stmt = Arc::new(db.parse("SELECT c FROM t WHERE b = 2").unwrap());
    let ingress = Arc::new(Ingress::with_config(IngressConfig::bounded(8, 24)));
    for _ in 0..PRODUCERS {
        ingress.add_shard();
    }

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..PRODUCERS as u32)
            .map(|t| {
                let ingress = &ingress;
                let stmt = &stmt;
                scope.spawn(move || {
                    for i in 0..OPS {
                        if (i + 1) % VOTE_EVERY == 0 {
                            ingress.try_submit(Event::vote(
                                TenantId(t),
                                IndexSet::empty(),
                                IndexSet::empty(),
                            ));
                        } else {
                            ingress.try_submit(Event::query(TenantId(t), stmt.clone()));
                        }
                    }
                })
            })
            .collect();
        let drainer = scope.spawn(|| {
            let mut drained = 0u64;
            while !done.load(Ordering::Relaxed) {
                drained += ingress.drain_all().iter().map(Vec::len).sum::<usize>() as u64;
                std::thread::yield_now();
            }
            // Final sweep after the producers quiesced.
            drained + ingress.drain_all().iter().map(Vec::len).sum::<usize>() as u64
        });

        // Sample the global stats as fast as possible while the race runs.
        let mut samples = 0u64;
        while !handles.iter().all(|h| h.is_finished()) {
            let s = ingress.stats();
            assert_eq!(
                s.pending,
                s.submitted - s.drained - s.shed,
                "mid-flight snapshot identity (sample {samples})"
            );
            samples += 1;
        }
        assert!(samples > 0, "the sampler actually raced the producers");
        for h in handles {
            h.join().expect("producer");
        }
        done.store(true, Ordering::Relaxed);
        let drained = drainer.join().expect("drainer");

        let s = ingress.stats();
        assert_eq!(s.pending, 0);
        assert_eq!(s.drained, drained);
        assert_eq!(s.pending, s.submitted - s.drained - s.shed);
    });
}

/// **Soak / overload gate** (the CI `soak` job) — a longer bounded-ingress
/// overload run through the full service: one producer per tenant floods the
/// admission gate far faster than the WFIT sessions can drain, so the gate
/// must shed continuously while pending memory stays at the configured
/// budget.  Scaled by `WFIT_SOAK` (read here, in a test body — the
/// grep-guard keeps env reads out of library code) and `#[ignore]`d so only
/// the dedicated CI job pays for it:
///
/// ```text
/// WFIT_SOAK=1 cargo test --release --test stress soak_ -- --nocapture --ignored
/// ```
///
/// Writes a shed/latency report to `target/soak-reports/soak-report.json`,
/// uploaded as a CI artifact.
#[test]
#[ignore = "soak: run via the CI soak job or --ignored (WFIT_SOAK scales it)"]
fn soak_bounded_service_overload_stays_within_budget() {
    const TENANTS: usize = 4;
    const TENANT_DEPTH: usize = 32;
    const GLOBAL_DEPTH: usize = 96;
    const VOTE_EVERY: usize = 12;
    const BLOCKING_EVERY: usize = 8;
    let scale: u64 = std::env::var("WFIT_SOAK")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let queries_per_tenant = (20_000 * scale) as usize;

    let start = std::time::Instant::now();
    let mut svc = TuningService::with_workers(4)
        .with_ingress(IngressConfig::bounded(TENANT_DEPTH, GLOBAL_DEPTH));
    let mut tenants = Vec::new();
    for t in 0..TENANTS {
        let (db, idx) = database();
        let id = svc.add_tenant_with(
            format!("soak-{t}"),
            db.clone(),
            TenantOptions::default().with_cache_capacity(64),
        );
        svc.add_session(id, format!("soak-{t}/s0"), |env| {
            Box::new(Wfit::new(env, WfitConfig::default())) as Box<dyn IndexAdvisor + Send>
        });
        let stmts: Vec<_> = [
            "SELECT c FROM t WHERE a = 1",
            "SELECT c FROM t WHERE b = 2",
            "SELECT c FROM t WHERE a < 3",
            "SELECT a FROM t WHERE c = 4",
        ]
        .iter()
        .map(|sql| Arc::new(db.parse(sql).unwrap()))
        .collect();
        tenants.push((id, stmts, idx));
    }
    let handle = svc.handle();
    let votes_offered = AtomicU64::new(0);

    let batch = std::thread::scope(|scope| {
        let handles: Vec<_> = tenants
            .iter()
            .map(|(id, stmts, idx)| {
                let handle = handle.clone();
                let votes_offered = &votes_offered;
                scope.spawn(move || {
                    for i in 0..queries_per_tenant {
                        let query = Event::query(*id, stmts[i % stmts.len()].clone());
                        if (i + 1) % BLOCKING_EVERY == 0 {
                            // A slice of the load uses the blocking gate,
                            // which parks until the drain frees capacity —
                            // pacing the producers to the drain rate so the
                            // overload is *sustained* for the whole run
                            // instead of a burst the gate rejects wholesale.
                            handle.submit(query);
                        } else {
                            // The rest races the drain through the
                            // non-blocking gate; most are rejected or shed
                            // under this offered load, by design.
                            handle.try_submit(query);
                        }
                        if (i + 1) % VOTE_EVERY == 0 {
                            // Votes go through the blocking path — which for
                            // votes never parks: they are always admitted.
                            let outcome = handle.submit(Event::vote(
                                *id,
                                IndexSet::single(idx[(i / VOTE_EVERY) % idx.len()]),
                                IndexSet::empty(),
                            ));
                            assert!(outcome.is_admitted(), "votes are never rejected");
                            votes_offered.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        let mut batch = svc.poll();
        while !handles.iter().all(|h| h.is_finished()) || svc.pending() > 0 {
            batch.absorb(svc.poll());
        }
        batch.absorb(svc.process_pending());
        batch
    });
    let elapsed = start.elapsed();

    let stats = svc.ingress_stats();
    assert_eq!(stats.pending, 0, "quiesced: nothing left queued");
    assert_eq!(
        stats.submitted,
        stats.drained + stats.shed,
        "submitted == drained + shed + pending"
    );
    assert_eq!(
        batch.events, stats.drained,
        "every drained event was processed"
    );
    assert!(
        stats.shed + stats.rejected > 0,
        "the soak actually overloaded the gate"
    );
    assert!(
        stats.drained > votes_offered.load(Ordering::Relaxed),
        "the service made progress on queries, not just votes"
    );
    assert!(
        stats.peak_pending <= GLOBAL_DEPTH as u64 + stats.deferred,
        "memory bound held for the whole soak: peak {} vs budget {} (+{} deferred)",
        stats.peak_pending,
        GLOBAL_DEPTH,
        stats.deferred
    );

    let offered = stats.submitted + stats.rejected;
    let shed_rate = (stats.shed + stats.rejected) as f64 / offered.max(1) as f64;
    let report = format!(
        "{{\n  \"scale\": {scale},\n  \"tenants\": {TENANTS},\n  \"per_tenant_depth\": {TENANT_DEPTH},\n  \"global_depth\": {GLOBAL_DEPTH},\n  \"elapsed_seconds\": {:.3},\n  \"offered\": {offered},\n  \"submitted\": {},\n  \"drained\": {},\n  \"shed\": {},\n  \"deferred\": {},\n  \"rejected\": {},\n  \"votes_offered\": {},\n  \"peak_pending\": {},\n  \"shed_rate\": {:.4},\n  \"processed_events\": {},\n  \"events_per_sec\": {:.1},\n  \"latency_p50_us\": {},\n  \"latency_p99_us\": {}\n}}\n",
        elapsed.as_secs_f64(),
        stats.submitted,
        stats.drained,
        stats.shed,
        stats.deferred,
        stats.rejected,
        votes_offered.load(Ordering::Relaxed),
        stats.peak_pending,
        shed_rate,
        batch.events,
        batch.events as f64 / elapsed.as_secs_f64().max(1e-9),
        batch.p50_us(),
        batch.p99_us(),
    );
    std::fs::create_dir_all("target/soak-reports").expect("create soak report dir");
    std::fs::write("target/soak-reports/soak-report.json", &report).expect("write soak report");
    println!(
        "soak: scale={scale} elapsed={:.1}s offered={offered} drained={} shed_rate={:.3} peak_pending={} (budget {GLOBAL_DEPTH})",
        elapsed.as_secs_f64(),
        stats.drained,
        shed_rate,
        stats.peak_pending,
    );
}
