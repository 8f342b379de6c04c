//! The multi-tenant tuning service end to end: eight tenants, each an
//! independent benchmark workload stream, served concurrently by one
//! `TuningService` — a WFIT session and a BC session per tenant, both
//! answering what-if questions out of the tenant's shared cost cache.
//! Each tenant's cache is capacity-bounded (deterministic CLOCK eviction),
//! and four workers drain the tenants in parallel, each tenant whole on one
//! worker, every event going to each of the tenant's sessions in
//! submission order.
//!
//! The second act demonstrates **async ingestion**: a producer thread keeps
//! submitting events through a cloned `ServiceHandle` while the main thread
//! polls drain rounds — submission is never blocked by a running drain.
//!
//! The third act demonstrates **admission control**: a deliberately tiny
//! bounded ingress is flooded through `try_submit` until it sheds — memory
//! stays at the configured budget, queries are turned away with a named
//! reason, and the DBA's votes always cut the line.
//!
//! The fourth act demonstrates **durability**: a service with a snapshot +
//! event WAL attached is killed between two drain rounds — past its last
//! snapshot — and a freshly assembled host restores from disk to the exact
//! pre-crash state, then finishes the workload.
//!
//! Run with `cargo run --release --example tuning_service`.

use std::sync::Arc;

use wfit::core::candidates::offline_selection;
use wfit::core::IndexAdvisor;
use wfit::service::{Event, IngressConfig, SessionId, SubmitOutcome, TenantOptions, TuningService};
use wfit::workload::{Benchmark, BenchmarkSpec};
use wfit::{IndexSet, Wfit, WfitConfig};

const TENANTS: usize = 8;
const STATEMENTS_PER_PHASE: usize = 8;
/// Per-tenant cap on resident what-if plan costs.
const CACHE_CAPACITY: usize = 256;
/// Worker threads (pinned, not host-derived, so the worker plan is the
/// same on every machine).
const WORKERS: usize = 4;

fn main() {
    // Generate eight independent tenant workloads (same benchmark shape,
    // decorrelated seeds) and mine each tenant's offline candidates.
    println!("preparing {TENANTS} tenant workloads…");
    let mut service = TuningService::with_workers(WORKERS);
    let mut streams = Vec::new();
    for t in 0..TENANTS {
        let bench = Benchmark::generate(BenchmarkSpec {
            statements_per_phase: STATEMENTS_PER_PHASE,
            seed: 0xBE7C_11AD ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            phases: wfit::workload::default_phases(),
        });
        let selection = offline_selection(&bench.db, &bench.statements, &WfitConfig::default());
        let Benchmark { db, statements, .. } = bench;
        let db = Arc::new(db);

        let tenant = service.add_tenant_with(
            format!("tenant-{t}"),
            db,
            TenantOptions::default().with_cache_capacity(CACHE_CAPACITY),
        );
        let partition = selection.partition.clone();
        service.add_session(tenant, "wfit", move |env| {
            Box::new(Wfit::with_fixed_partition(
                env,
                WfitConfig::default(),
                partition,
                IndexSet::empty(),
            )) as Box<dyn IndexAdvisor + Send>
        });
        let candidates = selection.candidates.clone();
        service.add_session(tenant, "bc", move |env| {
            Box::new(wfit::advisors::BruchoChaudhuriAdvisor::new(
                env,
                candidates,
                &IndexSet::empty(),
            )) as Box<dyn IndexAdvisor + Send>
        });
        streams.push((tenant, statements));
    }

    // Interleave all tenants' statements round-robin, the way a shared
    // ingestion endpoint would see them, then drain the queues: the service
    // shards by tenant and processes tenants in parallel.
    let per_tenant = streams[0].1.len();
    for pos in 0..per_tenant {
        for (tenant, statements) in &streams {
            service.submit(Event::query(*tenant, Arc::new(statements[pos].clone())));
        }
    }
    println!(
        "processing {} events across {} sessions…",
        service.pending(),
        service.session_count()
    );
    let batch = service.process_pending();

    // Act two — live submission during a drain.  A producer thread replays
    // tenant 0's stream again through a cloned handle while this thread
    // polls: every round snapshots whatever has arrived and drains tenant
    // 0's backlog on one worker, in submission order.
    let (hot_tenant, replay) = (streams[0].0, streams[0].1.clone());
    let expected = replay.len() as u64;
    let handle = service.handle();
    let mut live = wfit::service::BatchReport::default();
    let mut live_rounds = 0u64;
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for statement in replay {
                handle.submit(Event::query(hot_tenant, Arc::new(statement)));
            }
        });
        let mut processed = 0u64;
        while processed < expected {
            let round = service.poll();
            processed += round.events;
            if round.events == 0 {
                std::thread::yield_now();
            } else {
                live_rounds += 1;
            }
            live.absorb(round);
        }
    });
    println!(
        "live ingestion: {} events drained over {} poll rounds while the \
         producer was still submitting (hot-tenant p99 {}µs)",
        live.events,
        live_rounds,
        live.tenant_p99_us(hot_tenant),
    );
    let sched = service.sched_stats();
    println!(
        "scheduler: {} rounds, {} session-runs, max queue depth {}, load imbalance {:.3}",
        sched.rounds, sched.session_runs, sched.max_queue_depth, sched.max_imbalance,
    );

    println!();
    println!(
        "processed {} events in {:.2}s — {:.0} events/sec, latency p50 {}µs / p99 {}µs",
        batch.events,
        batch.wall_seconds,
        batch.events_per_sec(),
        batch.p50_us(),
        batch.p99_us(),
    );
    let cache = service.aggregate_cache_stats();
    println!(
        "shared what-if caches: {} requests, {} optimizer runs, hit rate {:.3}",
        cache.requests,
        cache.optimizer_calls,
        cache.hit_rate()
    );
    println!(
        "cache bounding: {} entries resident (≤ {} per tenant), {} evicted",
        cache.entries, CACHE_CAPACITY, cache.evictions
    );

    println!();
    println!(
        "{:<12} {:>14} {:>14} {:>8} {:>10}",
        "tenant", "WFIT totWork", "BC totWork", "Δ%", "rec size"
    );
    for (tenant, _) in &streams {
        let wfit_stats = service.session_stats(SessionId::new(*tenant, 0));
        let bc_stats = service.session_stats(SessionId::new(*tenant, 1));
        let delta = 100.0 * (bc_stats.total_work - wfit_stats.total_work) / bc_stats.total_work;
        println!(
            "{:<12} {:>14.0} {:>14.0} {:>7.1}% {:>10}",
            service.tenant_name(*tenant),
            wfit_stats.total_work,
            bc_stats.total_work,
            delta,
            service.recommendation(SessionId::new(*tenant, 0)).len()
        );
    }

    // Act three — the admission gate under overload.  A deliberately tiny
    // bounded service: 8 pending events per tenant, 24 across the service.
    // Flooding it through `try_submit` overruns the gate by design: most
    // queries are turned away with a named reason, pending memory never
    // exceeds the budget, and the DBA's votes are admitted every time —
    // displacing the newest queued query when their shard is full.
    println!();
    println!("overload act: bounded ingress (depth 8/tenant, 24 global)…");
    let mut bounded = TuningService::with_workers(2).with_ingress(IngressConfig::bounded(8, 24));
    let mut flood = Vec::new();
    for t in 0..2 {
        let bench = Benchmark::generate(BenchmarkSpec {
            statements_per_phase: STATEMENTS_PER_PHASE,
            seed: 0x0DD_10AD ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            phases: wfit::workload::default_phases(),
        });
        let Benchmark { db, statements, .. } = bench;
        let tenant = bounded.add_tenant_with(
            format!("bounded-{t}"),
            Arc::new(db),
            TenantOptions::default().with_cache_capacity(CACHE_CAPACITY),
        );
        bounded.add_session(tenant, "wfit", |env| {
            Box::new(Wfit::new(env, WfitConfig::default())) as Box<dyn IndexAdvisor + Send>
        });
        flood.push((tenant, statements));
    }
    let (mut accepted, mut rejected, mut deferred) = (0u64, 0u64, 0u64);
    for _wave in 0..6 {
        for (tenant, statements) in &flood {
            for statement in statements {
                match bounded.try_submit(Event::query(*tenant, Arc::new(statement.clone()))) {
                    SubmitOutcome::Accepted => accepted += 1,
                    SubmitOutcome::Rejected { .. } => rejected += 1,
                    SubmitOutcome::Deferred => deferred += 1,
                }
            }
            // The DBA's vote cuts the line: never rejected, never shed.
            let vote = Event::vote(*tenant, IndexSet::empty(), IndexSet::empty());
            assert!(bounded.try_submit(vote).is_admitted());
        }
        bounded.poll();
    }
    bounded.process_pending();
    let gate = bounded.ingress_stats();
    println!(
        "  query outcomes: {accepted} accepted, {rejected} rejected, {deferred} deferred \
         (shed rate {:.3})",
        (gate.shed + gate.rejected) as f64 / (gate.submitted + gate.rejected).max(1) as f64,
    );
    println!(
        "  gate ledger: {} submitted = {} drained + {} shed + {} pending; \
         {} votes deferred; peak pending {} (budget 24)",
        gate.submitted, gate.drained, gate.shed, gate.pending, gate.deferred, gate.peak_pending,
    );

    // Act four — durability.  Attach a snapshot + event WAL to the service:
    // every drain round is appended to the log *before* its events execute,
    // and `snapshot()` writes an atomically-renamed checkpoint.  Then kill
    // the service between two rounds — after the last snapshot, so a WAL
    // tail must be replayed — and recover on a freshly assembled host.
    println!();
    println!("durability act: snapshot + WAL, kill and restore…");
    let dir = std::env::temp_dir().join(format!("wfit-example-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let bench = Benchmark::generate(BenchmarkSpec {
        statements_per_phase: STATEMENTS_PER_PHASE,
        seed: 0xD0_5AFE,
        phases: wfit::workload::default_phases(),
    });
    let Benchmark { db, statements, .. } = bench;
    let db = Arc::new(db);
    // The restore contract: the host re-runs the *same* assembly (same
    // database instance or shape, same session builders, same order) and
    // the persistence layer replays the state into it.
    let assemble = || {
        let mut svc = TuningService::with_workers(2);
        let tenant = svc.add_tenant("durable", db.clone());
        svc.add_session(tenant, "wfit", |env| {
            Box::new(Wfit::new(env, WfitConfig::default())) as Box<dyn IndexAdvisor + Send>
        });
        (svc, tenant)
    };

    let (svc, tenant) = assemble();
    let mut svc = svc.with_persistence(&dir).expect("attach persistence");
    let session = SessionId::new(tenant, 0);
    let (half, tail) = (statements.len() / 2, statements.len() * 3 / 4);
    for statement in &statements[..half] {
        svc.submit(Event::query(tenant, Arc::new(statement.clone())));
    }
    svc.poll(); // WAL round 1
    svc.snapshot().expect("checkpoint the quiescent service");
    for statement in &statements[half..tail] {
        svc.submit(Event::query(tenant, Arc::new(statement.clone())));
    }
    svc.poll(); // WAL round 2 — logged, but *not* snapshotted
    let pre_crash = svc.session_stats(session).total_work;
    println!(
        "  logged {} WAL rounds, snapshot at round 1 — killing the service \
         with totWork {pre_crash:.0}…",
        svc.wal_rounds(),
    );
    drop(svc); // the crash: queues were empty, the disk state is all that survives

    let (mut svc, _) = assemble();
    let report = svc.restore(&dir).expect("recover snapshot + WAL tail");
    let recovered = svc.session_stats(session).total_work;
    assert_eq!(pre_crash.to_bits(), recovered.to_bits());
    println!(
        "  restored {} rounds ({} events) from disk — totWork {recovered:.0}, \
         bit-identical to the pre-crash state",
        report.wal_rounds, report.events_replayed,
    );
    for statement in &statements[tail..] {
        svc.submit(Event::query(tenant, Arc::new(statement.clone())));
    }
    svc.poll(); // WAL round 3, appended past the replayed log
    svc.snapshot().expect("post-restore checkpoint");
    println!(
        "  finished the workload on the restored host: {} WAL rounds, \
         final recommendation {} indexes",
        svc.wal_rounds(),
        svc.recommendation(session).len(),
    );
    let _ = std::fs::remove_dir_all(&dir);
}
