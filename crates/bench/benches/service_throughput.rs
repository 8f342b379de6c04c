//! Multi-tenant service throughput: N independent workload streams pushed
//! through `service::TuningService` as one interleaved event batch, each
//! tenant served by a WFIT-500 / WFIT-IND / BC session fleet over a shared
//! per-tenant what-if cache.
//!
//! Reports events/sec, per-event latency percentiles (global **and**
//! per-tenant — skewed workloads hide hot-tenant tail latency in the global
//! percentile), the shared-cache hit/eviction/occupancy counters, the
//! IBG-store reuse counters, and the scheduler's steal/fairness counters —
//! the hot path future perf work optimizes.  Knobs, all read once here at
//! the entry point:
//!
//! * `WFIT_TENANTS`   — tenant count (default 4)
//! * `WFIT_PHASE_LEN` — statements per workload phase (default 60)
//! * `WFIT_CACHE_CAP` — per-tenant shared-cache capacity (default 0 =
//!   unbounded)
//! * `WFIT_BATCH`     — query-batch size of the drain (default 1 =
//!   event-at-a-time)
//! * `WFIT_IBG_REUSE` — share built IBGs across a tenant's sessions
//!   (default 0)
//! * `WFIT_WORKERS`   — worker threads (default 0 = one per tenant)
//! * `WFIT_STEAL`     — cross-tenant work-stealing (default 0 = pinned
//!   bins)
//! * `WFIT_SKEW`      — hot-tenant multiplier: tenant 0 replays this many
//!   times the statements of every other tenant (default 1 = uniform)
//! * `WFIT_DEPTH`     — per-tenant ingress depth limit (default 0 =
//!   unbounded); turns the admission gate on
//! * `WFIT_OFFERED`   — offered-load multiplier per submission wave under a
//!   bounded ingress (default 1; >1 overloads the gate so queries shed)
//! * `WFIT_PERSIST`   — attach durable persistence (default 0): every drain
//!   round is WAL-logged and the run snapshots periodically, measuring the
//!   logging overhead against the in-memory replay; unbounded shape only
//! * `WFIT_BANDIT`    — add a C²UCB bandit session to every tenant's fleet
//!   (default 0), measuring the contextual-bandit arm head-to-head against
//!   WFIT/BC under the same shared-cache what-if accounting
//!
//! The acceptance experiment for the work-stealing scheduler:
//!
//! ```sh
//! WFIT_SKEW=8 WFIT_WORKERS=4              cargo bench --bench service_throughput
//! WFIT_SKEW=8 WFIT_WORKERS=4 WFIT_STEAL=1 cargo bench --bench service_throughput
//! ```
//!
//! shows higher events/sec with stealing (identical session state — the
//! cost cells are bit-equal; only overhead counters and wall clock move).
//! The overload experiment for the admission gate:
//!
//! ```sh
//! WFIT_DEPTH=8 WFIT_OFFERED=4 cargo bench --bench service_throughput
//! ```
//!
//! prints the shed rate and the pending-memory high-water mark, which stays
//! at the configured budget no matter how hard the producers push.

use bench::{phase_len_from_env, print_summaries, run_service_scenario, scenarios};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let spec = scenarios::service_throughput(env_usize("WFIT_TENANTS", 4), phase_len_from_env())
        .with_cache_capacity(env_usize("WFIT_CACHE_CAP", 0))
        .with_batch_size(env_usize("WFIT_BATCH", 1))
        .with_ibg_reuse(env_usize("WFIT_IBG_REUSE", 0) != 0)
        .with_workers(env_usize("WFIT_WORKERS", 0))
        .with_steal(env_usize("WFIT_STEAL", 0) != 0)
        .with_skew(env_usize("WFIT_SKEW", 1))
        .with_ingress_depths(env_usize("WFIT_DEPTH", 0), 0)
        .with_offered_multiplier(env_usize("WFIT_OFFERED", 1))
        .with_persist(env_usize("WFIT_PERSIST", 0) != 0)
        .with_bandit(env_usize("WFIT_BANDIT", 0) != 0);
    let tenants = spec.tenants;
    let cap = match spec.cache_capacity {
        0 => "unbounded".to_string(),
        c => format!("{c} entries"),
    };
    let fleet = if spec.has_bandit() {
        "WFIT-500 / WFIT-IND / BC / BANDIT"
    } else {
        "WFIT-500 / WFIT-IND / BC"
    };
    println!(
        "service_throughput: {tenants} tenants × {} statements{}, \
         fleet = {fleet}, shared what-if cache per tenant \
         ({cap}), batch size {}, IBG reuse {}, {} workers, stealing {}",
        spec.statements_per_tenant(),
        if spec.skew > 1 {
            format!(" (tenant 0 hot at {}×)", spec.skew)
        } else {
            String::new()
        },
        spec.batch_size,
        if spec.ibg_reuse { "on" } else { "off" },
        spec.resolved_workers(),
        if spec.steal { "on" } else { "off" },
    );
    let report = run_service_scenario(&spec);
    let service = report
        .service
        .as_ref()
        .expect("service scenarios always carry a service summary");
    println!();
    println!(
        "events          {:>12}  ({} queries, {} votes)",
        service.query_events + service.vote_events,
        service.query_events,
        service.vote_events
    );
    println!("events/sec      {:>12.0}", service.events_per_sec);
    println!("latency p50     {:>10} µs", service.latency_p50_us);
    println!("latency p99     {:>10} µs", service.latency_p99_us);
    for t in 0..tenants {
        println!(
            "  tenant {t:<4}  p50 {:>8} µs   p99 {:>8} µs{}",
            service.tenant_latency_p50_us.get(t).copied().unwrap_or(0),
            service.tenant_latency_p99_us.get(t).copied().unwrap_or(0),
            if spec.skew > 1 && t == 0 {
                "  (hot)"
            } else {
                ""
            },
        );
    }
    println!(
        "scheduler       {:>12} session-runs, {} stolen, max queue {}, imbalance {:.3}",
        service.session_runs, service.stolen_runs, service.max_queue_depth, service.load_imbalance
    );
    println!(
        "what-if cache   {:>12} requests, hit rate {:.3}",
        service.cache_requests, service.cache_hit_rate
    );
    println!(
        "cache eviction  {:>12} evicted, {} resident",
        service.cache_evictions, service.cache_entries
    );
    println!(
        "ibg store       {:>12} built, {} reused",
        service.ibg_builds, service.ibg_reuses
    );
    let turned_away = service.shed_events + service.rejected_submits;
    println!(
        "admission gate  {:>12} offered, {} shed, {} rejected, {} deferred (shed rate {:.3})",
        service.offered_events,
        service.shed_events,
        service.rejected_submits,
        service.deferred_events,
        turned_away as f64 / service.offered_events.max(1) as f64,
    );
    if service.persist {
        println!(
            "persistence     {:>12} WAL rounds logged (snapshot + WAL attached)",
            service.wal_rounds,
        );
    }
    println!(
        "peak pending    {:>12} events (memory high-water mark; depth {}/tenant, {} global)",
        service.peak_pending,
        match service.per_tenant_depth {
            0 => "∞".to_string(),
            d => d.to_string(),
        },
        match service.global_depth {
            0 => "∞".to_string(),
            d => d.to_string(),
        },
    );
    println!();
    print_summaries(&report);
}
